// The one histogram type: a fixed-size log-linear histogram of non-negative
// integers (byte sizes, virtual microseconds, batch sizes, hop counts).
//
// Layout: values below 32 each own a bucket and are exact.  From 32 up,
// every power-of-two range [2^e, 2^(e+1)) is split into 16 equal
// sub-buckets, so no bucket is wider than 1/16 of its lower bound.  That is
// 976 buckets for the whole uint64 range; Record() never allocates.
//
// count, sum, min and max are exact.  Percentile(p) finds the bucket holding
// the nearest-rank sample exactly and answers with that bucket's midpoint,
// clamped to [min, max], so it is within kHistogramRelativeError (1/32) of
// the exact nearest-rank value -- and equal to it below 32.
//
// The StatSlab and MetricShard slabs and BuildTraceStats all use this type.
// A slab histogram has one writer and any number of readers: the writer
// records through OwnerRecord, readers copy through AtomicLoad.

#ifndef DEMOS_BASE_HISTOGRAM_H_
#define DEMOS_BASE_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/base/owner_add.h"

namespace demos {

inline constexpr int kHistogramSubBucketBits = 4;  // 16 sub-buckets per power of two
inline constexpr std::uint64_t kHistogramExactBelow = std::uint64_t{2} << kHistogramSubBucketBits;
inline constexpr int kHistogramBuckets = 976;
inline constexpr double kHistogramRelativeError = 1.0 / 32;

// Bucket `b` holds the values [HistogramBucketLowerBound(b),
// HistogramBucketLowerBound(b) + HistogramBucketWidth(b) - 1]: the value
// shifted right by `shift` (0 below 32) keeps its top five bits.
constexpr int HistogramBucketOf(std::uint64_t value) {
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(value)) - kHistogramSubBucketBits - 1);
  return (shift << kHistogramSubBucketBits) + static_cast<int>(value >> shift);
}

constexpr int HistogramBucketShift(int b) {
  return std::max(0, (b >> kHistogramSubBucketBits) - 1);
}

constexpr std::uint64_t HistogramBucketWidth(int b) {
  return std::uint64_t{1} << HistogramBucketShift(b);
}

constexpr std::uint64_t HistogramBucketLowerBound(int b) {
  const int shift = HistogramBucketShift(b);
  return static_cast<std::uint64_t>(b - (shift << kHistogramSubBucketBits)) << shift;
}

static_assert(kHistogramBuckets ==
              HistogramBucketOf(std::numeric_limits<std::uint64_t>::max()) + 1);

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();  // while empty
  std::uint64_t max = 0;

  void Record(std::uint64_t value) {
    ++buckets[static_cast<std::size_t>(HistogramBucketOf(value))];
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }

  void Merge(const HistogramSnapshot& other) {
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] += other.buckets[b];
    }
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }

  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  // Nearest-rank percentile, p in [0, 100]; 0 while empty.  The first and
  // last ranks are min and max themselves.
  std::uint64_t Percentile(double p) const {
    if (count == 0) {
      return 0;
    }
    const double wanted = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count);
    const auto rank = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(wanted)));
    if (rank == 1) {
      return min;
    }
    if (rank >= count) {
      return max;
    }
    std::uint64_t seen = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      seen += buckets[static_cast<std::size_t>(b)];
      if (seen >= rank) {
        const std::uint64_t mid = HistogramBucketLowerBound(b) + (HistogramBucketWidth(b) - 1) / 2;
        return std::min(std::max(mid, min), max);
      }
    }
    return max;  // not reached: count is the sum of the buckets
  }

  // Recording into a histogram that other threads read.  One writer at a
  // time (the owner thread, or writers serialized by a mutex): each field is
  // a relaxed atomic load + store, with no locked instruction.  Every access
  // to a shared histogram goes through OwnerRecord/AtomicLoad.  The shared
  // copy keeps no count: AtomicLoad sums the buckets, so even a snapshot
  // taken mid-run has count == the sum of its buckets.
  void OwnerRecord(std::uint64_t value) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    OwnerAdd(Ref(buckets[static_cast<std::size_t>(HistogramBucketOf(value))]), std::uint64_t{1});
    OwnerAdd(Ref(sum), value);
    std::atomic_ref<std::uint64_t> lo = Ref(min);
    if (value < lo.load(kRelaxed)) {
      lo.store(value, kRelaxed);
    }
    std::atomic_ref<std::uint64_t> hi = Ref(max);
    if (value > hi.load(kRelaxed)) {
      hi.store(value, kRelaxed);
    }
  }

  // Point-in-time copy of a shared histogram; safe while writers run, and
  // exact once they are quiescent.
  HistogramSnapshot AtomicLoad() const {
    auto& self = const_cast<HistogramSnapshot&>(*this);  // atomic loads only
    HistogramSnapshot out;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      out.buckets[b] = Ref(self.buckets[b]).load(std::memory_order_relaxed);
      out.count += out.buckets[b];
    }
    out.sum = Ref(self.sum).load(std::memory_order_relaxed);
    out.min = Ref(self.min).load(std::memory_order_relaxed);
    out.max = Ref(self.max).load(std::memory_order_relaxed);
    return out;
  }

  bool operator==(const HistogramSnapshot&) const = default;

 private:
  static std::atomic_ref<std::uint64_t> Ref(std::uint64_t& field) {
    return std::atomic_ref<std::uint64_t>(field);
  }
};

}  // namespace demos

#endif  // DEMOS_BASE_HISTOGRAM_H_

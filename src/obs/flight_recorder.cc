#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <map>
#include <ostream>

namespace demos {

std::uint64_t FrSteadyClock(void* /*ctx*/) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

FlightRecorder::FlightRecorder(std::uint16_t shard, std::size_t capacity)
    : ring_(SpareArrays<EventRecord>::Take(
          std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity))),
      mask_(ring_.size() - 1),
      clock_(&FrSteadyClock),
      shard_(shard) {}

FlightRecorder::~FlightRecorder() { SpareArrays<EventRecord>::Give(std::move(ring_)); }

std::vector<EventRecord> FlightRecorder::SnapshotRecords() const {
  std::vector<EventRecord> out;
  const std::uint64_t retained = total_ < ring_.size() ? total_ : ring_.size();
  out.reserve(static_cast<std::size_t>(retained));
  const std::uint64_t first = total_ - retained;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i) & mask_]);
  }
  return out;
}

bool FlightRecorder::Trigger(const char* reason) {
  return hub_ != nullptr && hub_->Trigger(reason);
}

FlightRecorderHub::FlightRecorderHub(int shards, std::size_t capacity_per_shard) {
  recorders_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    recorders_.push_back(
        std::make_unique<FlightRecorder>(static_cast<std::uint16_t>(i), capacity_per_shard));
    recorders_.back()->hub_ = this;
  }
}

void FlightRecorderHub::SetClockAll(FrClockFn fn, void* ctx) {
  for (auto& r : recorders_) {
    r->SetClock(fn, ctx);
  }
}

std::vector<EventRecord> FlightRecorderHub::Merged() const {
  std::vector<EventRecord> out;
  for (const auto& r : recorders_) {
    std::vector<EventRecord> shard_records = r->SnapshotRecords();
    out.insert(out.end(), shard_records.begin(), shard_records.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const EventRecord& x, const EventRecord& y) {
    if (x.ts != y.ts) {
      return x.ts < y.ts;
    }
    if (x.machine != y.machine) {
      return x.machine < y.machine;
    }
    return x.seq < y.seq;
  });
  return out;
}

std::uint64_t FlightRecorderHub::TotalDropped() const {
  std::uint64_t dropped = 0;
  for (const auto& r : recorders_) {
    dropped += r->dropped();
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Dumps.
// ---------------------------------------------------------------------------

namespace {

void WriteOneRecordText(const EventRecord& r, std::ostream& os) {
  const EventInfo& info = EventInfoOf(r.type);
  os << r.ts << " s" << r.machine << " #" << r.seq << " " << info.name;
  if (r.id != 0) {
    os << " id=0x" << std::hex << r.id << std::dec;
  }
  if (*info.label_a != '\0') {
    os << " " << info.label_a << "=" << r.a;
  }
  if (*info.label_b != '\0') {
    os << " " << info.label_b << "=" << r.b;
  }
  os << "\n";
}

}  // namespace

void WriteFlightText(const std::vector<EventRecord>& records, const char* reason,
                     std::ostream& os) {
  os << "flight recorder dump";
  if (reason != nullptr) {
    os << " (trigger: " << reason << ")";
  }
  os << "\n";
  std::map<std::uint16_t, std::size_t> per_shard;
  for (const EventRecord& r : records) {
    ++per_shard[r.machine];
  }
  os << records.size() << " records across " << per_shard.size() << " shard(s):";
  for (const auto& [shard, n] : per_shard) {
    os << " s" << shard << "=" << n;
  }
  os << "\n---\n";
  for (const EventRecord& r : records) {
    WriteOneRecordText(r, os);
  }
}

bool WriteFlightTextFile(const std::vector<EventRecord>& records, const char* reason,
                         const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WriteFlightText(records, reason, os);
  return static_cast<bool>(os);
}

std::vector<EventRecord> FlightRecordsInMicros(std::vector<EventRecord> records) {
  for (EventRecord& r : records) {
    r.ts /= 1000;
  }
  return records;
}

}  // namespace demos

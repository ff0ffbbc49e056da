// Byte-buffer serialization primitives.
//
// All inter-kernel traffic in this reproduction is serialized to real byte
// buffers through these helpers, so that every cost the paper reports in bytes
// (6-12 byte control messages, 8-byte forwarding addresses, ~250/~600 byte
// process state records) is measurable as bytes rather than estimated.
// Encoding is little-endian, fixed-width.
//
// PayloadRef is the unit of payload ownership on the message path: a shared,
// refcounted, immutable byte buffer plus an (offset, length) window into it.
// A message payload, its wire frame, a retransmit buffer, and a pending-queue
// entry can all alias one allocation; the rare mutating path (patching the
// receiver machine on a forwarding hop while a retransmit buffer still holds
// the frame) goes through copy-on-write.
//
// The backing store is an intrusive refcounted node served by the shard-local
// free-lists in src/base/pool.h (PayloadBufferPool): a fresh PayloadRef and a
// default ByteWriter both recycle hot-path allocations instead of hitting the
// heap.  PayloadCounters keeps counting *logical* buffer allocations either
// way; pool_hits/pool_misses (src/obs) say how many of those dodged malloc.

#ifndef DEMOS_BASE_BYTES_H_
#define DEMOS_BASE_BYTES_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/base/owner_add.h"
#include "src/base/pool.h"

namespace demos {

using Bytes = std::vector<std::uint8_t>;

// Little-endian fixed-width loads and stores: one memcpy on little-endian
// hosts, a byte loop elsewhere.
template <typename T>
T LoadLE(const std::uint8_t* p) {
  T v{};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

template <typename T>
void StoreLE(std::uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

// A process-wide count striped over cache lines, each stripe written by one
// thread at a time, so an add is a relaxed load + store with no locked
// instruction.  A thread claims a free stripe at its first add and hands it
// back at thread exit with its value kept; the next thread to claim it adds
// on from there (the claim's acquire pairs with the hand-back's release).
// Threads beyond kOwnedStripes alive at once share one last stripe with a
// locked add.  A read sums the stripes.  While writers run, successive reads
// never go backwards (every stripe only grows, each is read once per sum,
// and a hand-back keeps its value); once every add happens-before the read
// -- a thread join, or the parallel engine's quiescence handshake -- the sum
// is exact.  Reads as a std::atomic would: load(order), or implicitly as a
// std::uint64_t.
class StripedCounter {
 public:
  void Add(std::uint64_t n) {
    const std::size_t stripe = ThreadStripe();
    std::atomic<std::uint64_t>& value = stripes_[stripe].value;
    if (stripe == kSharedStripe) {
      value.fetch_add(n, std::memory_order_relaxed);
    } else {
      OwnerAdd(value, n);
    }
  }
  std::uint64_t load(std::memory_order order = std::memory_order_seq_cst) const {
    std::uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(order);
    }
    return total;
  }
  operator std::uint64_t() const { return load(); }  // NOLINT(google-explicit-constructor)
  // Not concurrent with Add: callers reset between runs.
  void Reset() {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::size_t kOwnedStripes = 64;
  static constexpr std::size_t kSharedStripe = kOwnedStripes;
  static constexpr std::size_t kUnclaimed = kOwnedStripes + 1;
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> value{0};
  };

  // The stripe index is per thread, not per counter: stripe i of every
  // StripedCounter belongs to the thread holding claim i.
  static std::size_t ThreadStripe() {
    const std::size_t stripe = ThreadIndex();
    return stripe != kUnclaimed ? stripe : Claim();
  }
  static std::size_t& ThreadIndex() {
    thread_local std::size_t index = kUnclaimed;  // constant-initialized: no TLS guard
    return index;
  }
  // First add on this thread: take a free stripe (or the shared one) and
  // arrange to hand it back when the thread exits.  Adds after the hand-back
  // (late thread-exit destructors) go to the shared stripe.  Out of line, so
  // every inlined Add stays a TLS load plus the add (inlined, this once-per-
  // thread path also sets off GCC 12's -Wfree-nonheap-object in callers).
  [[gnu::noinline]] static std::size_t Claim() {
    struct Release {
      ~Release() {
        std::size_t& index = ThreadIndex();
        if (index < kOwnedStripes) {
          claimed_[index].store(false, std::memory_order_release);
        }
        index = kSharedStripe;
      }
    };
    thread_local Release release;
    std::size_t& index = ThreadIndex();
    index = kSharedStripe;
    for (std::size_t i = 0; i < kOwnedStripes; ++i) {
      bool expected = false;
      if (!claimed_[i].load(std::memory_order_relaxed) &&
          claimed_[i].compare_exchange_strong(expected, true, std::memory_order_acquire)) {
        index = i;
        break;
      }
    }
    return index;
  }

  inline static std::atomic<bool> claimed_[kOwnedStripes] = {};
  Stripe stripes_[kOwnedStripes + 1];
};

// Process-wide counters behind the E-bench copy accounting: how many backing
// buffers the payload pipeline allocated and how many bytes were physically
// copied into them.  Moves and slices are free; only genuine allocations and
// memcpys count.  Striped: shard threads of the parallel engine (src/run)
// count concurrently, and tests read the totals at quiescence.
struct PayloadCounters {
  inline static StripedCounter allocations;
  inline static StripedCounter copied_bytes;

  static void CountAllocation() { allocations.Add(1); }
  static void CountCopied(std::uint64_t bytes) { copied_bytes.Add(bytes); }

  static void Reset() {
    allocations.Reset();
    copied_bytes.Reset();
  }
};

// A shared immutable view of a refcounted byte buffer.  Copying a PayloadRef
// bumps a refcount; Slice() aliases a sub-range of the same allocation.  The
// refcount is intrusive (PayloadBufferPool::Node) so the last release can
// recycle both the node and the buffer capacity into the releasing thread's
// free-list.
class PayloadRef {
 public:
  PayloadRef() = default;

  // Implicit on purpose: adopting a Bytes buffer moves it into shared
  // ownership without copying the bytes, so existing `Send(..., w.Take())`
  // call sites stay zero-copy.
  PayloadRef(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : node_(bytes.empty() ? nullptr : PayloadBufferPool::AcquireNode(std::move(bytes))),
        off_(0),
        len_(node_ != nullptr ? node_->bytes.size() : 0) {
    if (node_ != nullptr) {
      PayloadCounters::CountAllocation();
    }
  }

  PayloadRef(const PayloadRef& other) noexcept
      : node_(other.node_), off_(other.off_), len_(other.len_) {
    if (node_ != nullptr) {
      node_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  PayloadRef(PayloadRef&& other) noexcept
      : node_(other.node_), off_(other.off_), len_(other.len_) {
    other.node_ = nullptr;
    other.off_ = 0;
    other.len_ = 0;
  }

  PayloadRef& operator=(const PayloadRef& other) noexcept {
    PayloadRef tmp(other);
    Swap(tmp);
    return *this;
  }

  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      Release();
      node_ = other.node_;
      off_ = other.off_;
      len_ = other.len_;
      other.node_ = nullptr;
      other.off_ = 0;
      other.len_ = 0;
    }
    return *this;
  }

  ~PayloadRef() { Release(); }

  // Braced literals (`msg.payload = {1, 2, 3}`) build a fresh buffer.  The
  // iterator-pair Bytes keeps GCC 12's -Wfree-nonheap-object from misfiring.
  PayloadRef(std::initializer_list<std::uint8_t> bytes)  // NOLINT
      : PayloadRef(Bytes(bytes.begin(), bytes.end())) {}

  // Explicitly copy `len` bytes into a fresh (pooled) buffer.
  static PayloadRef Copy(const void* data, std::size_t len) {
    if (len == 0) {
      return PayloadRef{};
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    Bytes bytes = PayloadBufferPool::AcquireBytes(len);
    bytes.assign(p, p + len);
    PayloadCounters::CountCopied(len);
    return PayloadRef(std::move(bytes));
  }

  // Alias a sub-range of this ref's window (clamped to it).  No allocation.
  PayloadRef Slice(std::size_t off, std::size_t len) const {
    PayloadRef out;
    off = std::min(off, len_);
    out.len_ = std::min(len, len_ - off);
    if (out.len_ != 0) {
      out.node_ = node_;
      out.off_ = off_ + off;
      if (out.node_ != nullptr) {
        out.node_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return out;
  }

  const std::uint8_t* data() const {
    return node_ != nullptr ? node_->bytes.data() + off_ : nullptr;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return node_->bytes[off_ + i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  // Materialize an owned copy (counted as a copy).
  Bytes ToBytes() const {
    PayloadCounters::CountCopied(len_);
    return Bytes(begin(), end());
  }
  explicit operator Bytes() const { return ToBytes(); }

  // Copy-on-write mutable access to this ref's window.  Sole owners mutate
  // the shared buffer in place; if any other PayloadRef aliases the backing
  // buffer, the window is first cloned so they keep seeing the old bytes.
  std::uint8_t* MutableData() {
    if (node_ == nullptr) {
      return nullptr;
    }
    // refs == 1 means we hold the only reference, so nobody can gain a new
    // one except through us -- in-place mutation is safe.  Otherwise clone
    // the window first so the other refs keep seeing the old bytes.
    if (node_->refs.load(std::memory_order_acquire) > 1) {
      Bytes clone(begin(), end());
      PayloadCounters::CountCopied(len_);
      PayloadBufferPool::Node* fresh = PayloadBufferPool::AcquireNode(std::move(clone));
      PayloadCounters::CountAllocation();
      Release();
      node_ = fresh;
      off_ = 0;
    }
    return node_->bytes.data() + off_;
  }

  // True if both refs alias the same backing allocation (regardless of
  // window).  Used by tests to prove the zero-copy invariants.
  bool SharesBufferWith(const PayloadRef& other) const {
    return node_ != nullptr && node_ == other.node_;
  }

  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    return a.len_ == b.len_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const PayloadRef& a, const Bytes& b) {
    return a.len_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const PayloadRef& b) { return b == a; }

 private:
  void Release() noexcept {
    // A count of 1 means this is the only reference, so no other thread can
    // touch the count concurrently: recycle without a locked decrement (the
    // acquire load still orders every earlier owner's release before reuse).
    if (node_ != nullptr && (node_->refs.load(std::memory_order_acquire) == 1 ||
                             node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)) {
      PayloadBufferPool::ReleaseNode(node_);
    }
    node_ = nullptr;
  }

  void Swap(PayloadRef& other) noexcept {
    std::swap(node_, other.node_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  PayloadBufferPool::Node* node_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

class ByteWriter {
 public:
  // A writer starts from a recycled buffer with room for `expected_bytes`
  // (salvaged from released payload nodes of that size class), so steady-
  // state message encoding reuses heap arrays instead of growing fresh
  // vectors.  Callers that know their size pass it; the default suits the
  // small control and token payloads.
  static constexpr std::size_t kDefaultExpectedBytes = 32;
  explicit ByteWriter(std::size_t expected_bytes = kDefaultExpectedBytes)
      : buf_(PayloadBufferPool::AcquireBytes(expected_bytes)) {}
  // A writer whose bytes were never taken (read through bytes()) hands its
  // buffer back to the pool.
  ~ByteWriter() { PayloadBufferPool::RecycleBytes(std::move(buf_)); }
  ByteWriter(ByteWriter&&) = default;
  ByteWriter& operator=(ByteWriter&&) = default;

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) { AppendLE(v); }
  void U32(std::uint32_t v) { AppendLE(v); }
  void U64(std::uint64_t v) { AppendLE(v); }
  void I64(std::int64_t v) { AppendLE(static_cast<std::uint64_t>(v)); }

  void Raw(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  void Blob(const Bytes& b) {
    U32(static_cast<std::uint32_t>(b.size()));
    Raw(b.data(), b.size());
  }

  // Distinct name (not an overload) so braced `Blob({1, 2, 3})` call sites
  // stay unambiguous.
  void BlobRef(const PayloadRef& b) {
    U32(static_cast<std::uint32_t>(b.size()));
    Raw(b.data(), b.size());
  }

  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  void Pid(const ProcessId& id) {
    U16(id.creating_machine);
    U32(id.local_id);
  }

  // 8 bytes: the on-the-wire size of a process address (and of a forwarding
  // address record, per Sec. 4 of the paper).
  void Address(const ProcessAddress& a) {
    U16(a.last_known_machine);
    Pid(a.pid);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLE(T v) {
    std::uint8_t le[sizeof(T)];
    StoreLE(le, v);
    Raw(le, sizeof(T));
  }

  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  // Rvalue buffers (e.g. `ByteReader r(ctx.ReadData(...))`) are moved into the
  // reader so the common construct-from-temporary pattern is safe.
  explicit ByteReader(Bytes&& buf)
      : owned_(std::move(buf)), data_(owned_.data()), size_(owned_.size()) {}
  // Shared buffers are retained (refcount bump), not copied; BlobRef() then
  // aliases sub-ranges of the same allocation.
  explicit ByteReader(const PayloadRef& ref)
      : ref_(ref), data_(ref_.data()), size_(ref_.size()) {}
  // Borrowed bytes: the caller keeps them alive for the reader's lifetime.
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  ByteReader(const ByteReader&) = delete;
  ByteReader& operator=(const ByteReader&) = delete;

  std::uint8_t U8() { return ReadLE<std::uint8_t>(); }
  std::uint16_t U16() { return ReadLE<std::uint16_t>(); }
  std::uint32_t U32() { return ReadLE<std::uint32_t>(); }
  std::uint64_t U64() { return ReadLE<std::uint64_t>(); }
  std::int64_t I64() { return static_cast<std::int64_t>(ReadLE<std::uint64_t>()); }

  Bytes Blob() {
    std::uint32_t n = U32();
    Bytes out;
    if (!Ensure(n)) {
      return out;
    }
    out.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  // Zero-copy variant of Blob() when the reader is backed by a PayloadRef:
  // the result aliases the backing buffer.  Falls back to a copy otherwise.
  PayloadRef BlobRef() {
    std::uint32_t n = U32();
    if (!Ensure(n)) {
      return PayloadRef{};
    }
    PayloadRef out = ref_.empty() && n > 0 ? PayloadRef::Copy(data_ + pos_, n)
                                           : ref_.Slice(pos_, n);
    pos_ += n;
    return out;
  }

  std::string Str() {
    std::uint32_t n = U32();
    std::string out;
    if (!Ensure(n)) {
      return out;
    }
    out.assign(reinterpret_cast<const char*>(data_) + pos_, n);
    pos_ += n;
    return out;
  }

  ProcessId Pid() {
    ProcessId id;
    id.creating_machine = U16();
    id.local_id = U32();
    return id;
  }

  ProcessAddress Address() {
    ProcessAddress a;
    a.last_known_machine = U16();
    a.pid = Pid();
    return a;
  }

  // True if every read so far stayed inside the buffer.
  bool ok() const { return !overrun_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

 private:
  template <typename T>
  T ReadLE() {
    if (!Ensure(sizeof(T))) {
      return T{};
    }
    const T v = LoadLE<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  bool Ensure(std::size_t n) {
    if (size_ - pos_ < n) {
      overrun_ = true;
      pos_ = size_;
      return false;
    }
    return true;
  }

  Bytes owned_;
  PayloadRef ref_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  bool overrun_ = false;
};

}  // namespace demos

#endif  // DEMOS_BASE_BYTES_H_

// Shard-local free-list pools for the message hot path.
//
// The parallel engine's per-message cost was dominated by allocator traffic:
// every Send built a fresh Bytes buffer (ByteWriter), wrapped it in a
// refcounted heap node (PayloadRef), and freed both on the consuming shard.
// Strict shard ownership makes that traffic poolable without locks: each
// thread keeps a small free-list of payload nodes and of recycled buffer
// capacities, and because a shard thread both produces (Send) and consumes
// (Drain) messages, buffers circulate between the per-thread pools in steady
// state.  A release always lands in the *releasing* thread's pool -- there is
// never a cross-thread free on the fast path.
//
// The bounded global fallback handles the imbalanced cases (staging threads
// that only produce, migration handoffs that shift traffic between shards,
// thread shutdown): a thread whose local pool overflows donates to the global
// list, and a thread whose local pool runs dry refills from it before
// touching malloc.
//
// Buffers are cached by size class and acquired by the size the caller will
// write, so a frame of n bytes is served a buffer that already holds n bytes
// instead of whatever capacity happens to be on top (which it would then
// grow on the heap).
//
// Observability: every acquire is a pool_hit (served from a free-list with
// room for the request) or a pool_miss (fell back to the heap).  Stats are
// per-thread; the shard loop folds them into its MetricShard slab
// (pool_hits / pool_misses) at each park, so exhaustion is visible per shard
// in demos-metrics-v2.

#ifndef DEMOS_BASE_POOL_H_
#define DEMOS_BASE_POOL_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace demos {

using Bytes = std::vector<std::uint8_t>;

struct PoolThreadStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Pool of PayloadRef backing nodes (intrusive refcount + byte buffer) and of
// recycled buffer capacities for ByteWriter.  All entry points are static;
// state is thread-local with a mutex-guarded global fallback.
class PayloadBufferPool {
 public:
  // One refcounted backing buffer.  PayloadRef (src/base/bytes.h) holds a
  // Node* plus a window; the last ref to drop calls ReleaseNode.  A node is
  // written by the thread that frames a message and read by the one that
  // receives it; a cache line of its own keeps a neighbour's refcount traffic
  // from invalidating it in between.
  struct alignas(64) Node {
    std::atomic<std::uint32_t> refs{1};
    Bytes bytes;
  };

  // Tunables.  Plain members: set them only while no pooled traffic runs
  // (tests shrink the caps to force exhaustion).
  struct Limits {
    std::size_t local_nodes = 256;       // nodes cached per thread
    // Capacities cached per thread in each size class.  A class nobody asks
    // for (adopted program buffers of an odd size) fills to this cap and
    // stays there, so it is kept small: hoarded buffers fragment the heap
    // for everything else.
    std::size_t local_buffers = 64;
    std::size_t global_entries = 1024;   // fallback cap: nodes, and buffers over all classes
    std::size_t max_buffer_bytes = 16384;  // don't cache giant capacities
  };

  // Size classes: class k caches buffers whose capacity lies in
  // [2^k, 2^(k+1)), so every buffer in class ClassFor(n) holds n bytes.
  // A miss reserves the class's lower bound, which lands the buffer back in
  // the class that asked for it when it is released.
  static constexpr unsigned kMinClass = 4;   // 16 B
  static constexpr unsigned kMaxClass = 14;  // 16 KiB
  static constexpr unsigned kNumClasses = kMaxClass - kMinClass + 1;
  static Limits& limits() {
    static Limits limits;
    return limits;
  }

  // Fresh node owning `bytes` with refs == 1.  Pool hit when the node object
  // was recycled; the buffer's own capacity travels with `bytes`.
  static Node* AcquireNode(Bytes&& bytes) {
    LocalCache& cache = Local();
    Node* node = nullptr;
    if (!cache.nodes.empty()) {
      node = cache.nodes.back();
      cache.nodes.pop_back();
    } else {
      node = PopGlobalNode();
    }
    if (node != nullptr) {
      cache.stats.hits++;
      node->refs.store(1, std::memory_order_relaxed);
      node->bytes = std::move(bytes);
      return node;
    }
    cache.stats.misses++;
    node = new Node;
    node->bytes = std::move(bytes);
    return node;
  }

  // Called by the last PayloadRef to drop its reference.  Salvages the
  // buffer's capacity for AcquireBytes and recycles the node object; both go
  // to the *calling* thread's pool (never a cross-thread free).
  [[gnu::noinline]] static void ReleaseNode(Node* node) {
    if (LocalDead()) {
      delete node;  // thread (or process) is tearing down; pools are gone
      return;
    }
    RecycleBytes(std::move(node->bytes));
    node->bytes = Bytes{};
    LocalCache& cache = Local();
    const Limits& lim = limits();
    if (cache.nodes.size() < lim.local_nodes) {
      cache.nodes.push_back(node);
    } else if (!PushGlobalNode(node)) {
      delete node;
    }
  }

  // File a buffer's capacity under its size class in the calling thread's
  // pool (spilling to the global fallback when the local class is full).
  // Capacities outside the classes, or past max_buffer_bytes, are freed.
  static void RecycleBytes(Bytes&& bytes) {
    Bytes salvaged = std::move(bytes);
    const std::size_t capacity = salvaged.capacity();
    const Limits& lim = limits();
    if (LocalDead() || capacity < (std::size_t{1} << kMinClass) ||
        capacity > lim.max_buffer_bytes) {
      return;
    }
    const unsigned k = std::min<unsigned>(std::bit_width(capacity) - 1, kMaxClass);
    std::vector<Bytes>& local = Local().buffers[k - kMinClass];
    salvaged.clear();
    if (local.size() < lim.local_buffers) {
      local.push_back(std::move(salvaged));
    } else if (!PushGlobalBuffer(k, std::move(salvaged))) {
      // Global full too: let the capacity die (the heap is the overflow).
    }
  }

  // Empty buffer with capacity for at least `want` bytes (ByteWriter,
  // Message::Serialize, PayloadRef::Copy):
  // recycled from `want`'s size class (a hit) or freshly reserved (a miss).
  // Requests past the largest class always miss and reserve exactly `want`.
  static Bytes AcquireBytes(std::size_t want) {
    LocalCache& cache = Local();
    const unsigned k = ClassFor(want);
    if (k <= kMaxClass) {
      std::vector<Bytes>& local = cache.buffers[k - kMinClass];
      if (!local.empty()) {
        Bytes out = std::move(local.back());
        local.pop_back();
        cache.stats.hits++;
        return out;
      }
      Bytes global = PopGlobalBuffer(k);
      if (global.capacity() != 0) {
        cache.stats.hits++;
        return global;
      }
    }
    cache.stats.misses++;
    Bytes out;
    out.reserve(k <= kMaxClass ? std::size_t{1} << k : want);
    return out;
  }

  // This thread's cumulative acquire stats (monotonic; callers diff them).
  static PoolThreadStats ThreadStats() { return Local().stats; }

  // Drop every cached node and buffer (local to this thread + the global
  // fallback) and zero this thread's stats.  Test isolation only.
  static void DrainForTest() {
    LocalCache& cache = Local();
    for (Node* node : cache.nodes) {
      delete node;
    }
    cache.nodes.clear();
    for (std::vector<Bytes>& cls : cache.buffers) {
      cls.clear();
    }
    cache.stats = PoolThreadStats{};
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    for (Node* node : global.nodes) {
      delete node;
    }
    global.nodes.clear();
    for (std::vector<Bytes>& cls : global.buffers) {
      cls.clear();
    }
  }

 private:
  // Smallest class whose every buffer holds `want` bytes: ceil(log2(want)),
  // at least kMinClass.
  static unsigned ClassFor(std::size_t want) {
    return want <= (std::size_t{1} << kMinClass) ? kMinClass
                                                 : static_cast<unsigned>(std::bit_width(want - 1));
  }

  using BufferClasses = std::array<std::vector<Bytes>, kNumClasses>;

  struct LocalCache {
    std::vector<Node*> nodes;
    BufferClasses buffers;
    PoolThreadStats stats;

    ~LocalCache() {
      LocalDead() = true;
      // Donate what fits to the global fallback, free the rest.
      GlobalCache& global = Global();
      std::lock_guard<std::mutex> lock(global.mu);
      const Limits& lim = limits();
      for (Node* node : nodes) {
        if (global.nodes.size() < lim.global_entries) {
          global.nodes.push_back(node);
        } else {
          delete node;
        }
      }
      nodes.clear();
    }
  };

  // Owns its cached nodes: static teardown frees them (the main thread's
  // LocalCache donates here first, since thread-local destructors run
  // before static ones).
  struct GlobalCache {
    std::mutex mu;
    std::vector<Node*> nodes;
    BufferClasses buffers;

    ~GlobalCache() {
      for (Node* node : nodes) {
        delete node;
      }
    }
  };

  // Tombstone for this thread's cache.  False until ~LocalCache runs, so a
  // consumer-only thread (releases payloads it never acquired -- migration
  // handoff, staging helpers) still builds a cache on its first release.  The
  // bool is trivially destructible and therefore outlives the cache: after
  // thread-exit teardown, late releases see dead == true and free directly
  // instead of resurrecting the thread_local.
  static bool& LocalDead() {
    static thread_local bool dead = false;
    return dead;
  }
  static LocalCache& Local() {
    static thread_local LocalCache cache;
    return cache;
  }
  static GlobalCache& Global() {
    static GlobalCache global;
    return global;
  }

  static Node* PopGlobalNode() {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    if (global.nodes.empty()) {
      return nullptr;
    }
    Node* node = global.nodes.back();
    global.nodes.pop_back();
    return node;
  }
  static bool PushGlobalNode(Node* node) {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    if (global.nodes.size() >= limits().global_entries) {
      return false;
    }
    global.nodes.push_back(node);
    return true;
  }
  static Bytes PopGlobalBuffer(unsigned k) {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    std::vector<Bytes>& cls = global.buffers[k - kMinClass];
    if (cls.empty()) {
      return Bytes{};
    }
    Bytes out = std::move(cls.back());
    cls.pop_back();
    return out;
  }
  static bool PushGlobalBuffer(unsigned k, Bytes&& buffer) {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    std::vector<Bytes>& cls = global.buffers[k - kMinClass];
    if (cls.size() >= limits().global_entries / kNumClasses) {
      return false;
    }
    cls.push_back(std::move(buffer));
    return true;
  }
};

// Process-wide spares of the large arrays an engine holds for its whole life
// (mailbox rings, flight-recorder rings).  An engine built after another (a
// test suite, a benchmark's iterations) takes its predecessor's arrays,
// whose pages are already resident, instead of fresh ones: the allocator
// maps arrays this large afresh, and faulting them in page by page
// dominated building an engine.  Thread-safe; not for hot paths.
template <typename T>
class SpareArrays {
 public:
  // A vector of exactly `n` elements.  A reused one keeps the contents its
  // last owner left; a fresh one is value-initialized.
  static std::vector<T> Take(std::size_t n) {
    Spares& spares = Get();
    std::lock_guard<std::mutex> lock(spares.mu);
    for (auto it = spares.arrays.begin(); it != spares.arrays.end(); ++it) {
      if (it->size() == n) {
        std::vector<T> out = std::move(*it);
        spares.arrays.erase(it);
        return out;
      }
    }
    return std::vector<T>(n);
  }

  // Keep `array` for a later Take (up to kMaxSpares; past that it is freed).
  static void Give(std::vector<T>&& array) {
    Spares& spares = Get();
    std::lock_guard<std::mutex> lock(spares.mu);
    if (spares.arrays.size() < kMaxSpares) {
      spares.arrays.push_back(std::move(array));
    }
  }

 private:
  static constexpr std::size_t kMaxSpares = 16;
  struct Spares {
    std::mutex mu;
    std::vector<std::vector<T>> arrays;
  };
  static Spares& Get() {
    static Spares spares;
    return spares;
  }
};

// Owner-thread-only bounded free-list for recyclable objects (the router's
// batch buffers).  Not thread-safe by design: acquire and release must happen
// on the structure's owning thread; cross-thread circulation happens by
// moving the object itself (a drained batch is released into the *consumer's*
// pool).
template <typename T>
class OwnedFreeList {
 public:
  explicit OwnedFreeList(std::size_t cap = 64) : cap_(cap) {}

  // Returns a recycled object (hit) or a fresh one (miss).
  std::unique_ptr<T> Acquire(bool* hit = nullptr) {
    if (!free_.empty()) {
      std::unique_ptr<T> out = std::move(free_.back());
      free_.pop_back();
      if (hit != nullptr) {
        *hit = true;
      }
      return out;
    }
    if (hit != nullptr) {
      *hit = false;
    }
    return std::make_unique<T>();
  }

  void Release(std::unique_ptr<T> obj) {
    if (free_.size() < cap_) {
      free_.push_back(std::move(obj));
    }
    // else: unique_ptr frees it -- the pool is a cache, not an owner of record.
  }

  std::size_t size() const { return free_.size(); }

 private:
  std::size_t cap_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace demos

#endif  // DEMOS_BASE_POOL_H_

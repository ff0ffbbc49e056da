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
// Observability: every acquire is a pool_hit (served from a free-list) or a
// pool_miss (fell back to the heap).  Stats are per-thread; the shard loop
// folds them into its MetricShard slab (pool_hits / pool_misses) at each
// park, so exhaustion is visible per shard in demos-metrics-v2.

#ifndef DEMOS_BASE_POOL_H_
#define DEMOS_BASE_POOL_H_

#include <atomic>
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
    std::size_t local_buffers = 256;     // capacities cached per thread
    std::size_t global_entries = 1024;   // fallback cap (nodes and buffers each)
    std::size_t max_buffer_bytes = 16384;  // don't cache giant capacities
  };
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
  static void ReleaseNode(Node* node) {
    if (LocalDead()) {
      delete node;  // thread (or process) is tearing down; pools are gone
      return;
    }
    LocalCache& cache = Local();
    const Limits& lim = limits();
    Bytes salvaged = std::move(node->bytes);
    node->bytes = Bytes{};
    if (salvaged.capacity() != 0 && salvaged.capacity() <= lim.max_buffer_bytes) {
      salvaged.clear();
      if (cache.buffers.size() < lim.local_buffers) {
        cache.buffers.push_back(std::move(salvaged));
      } else if (!PushGlobalBuffer(std::move(salvaged))) {
        // Global full too: let the capacity die (the heap is the overflow).
      }
    }
    if (cache.nodes.size() < lim.local_nodes) {
      cache.nodes.push_back(node);
    } else if (!PushGlobalNode(node)) {
      delete node;
    }
  }

  // Recycled empty buffer with leftover capacity for ByteWriter (falls back
  // to a fresh Bytes).  Hit/miss counted like node acquisition.
  static Bytes AcquireBytes() {
    LocalCache& cache = Local();
    if (!cache.buffers.empty()) {
      Bytes out = std::move(cache.buffers.back());
      cache.buffers.pop_back();
      cache.stats.hits++;
      return out;
    }
    Bytes global = PopGlobalBuffer();
    if (global.capacity() != 0) {
      cache.stats.hits++;
      return global;
    }
    cache.stats.misses++;
    return Bytes{};
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
    cache.buffers.clear();
    cache.stats = PoolThreadStats{};
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    for (Node* node : global.nodes) {
      delete node;
    }
    global.nodes.clear();
    global.buffers.clear();
  }

 private:
  struct LocalCache {
    std::vector<Node*> nodes;
    std::vector<Bytes> buffers;
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
    std::vector<Bytes> buffers;

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
  static Bytes PopGlobalBuffer() {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    if (global.buffers.empty()) {
      return Bytes{};
    }
    Bytes out = std::move(global.buffers.back());
    global.buffers.pop_back();
    return out;
  }
  static bool PushGlobalBuffer(Bytes&& buffer) {
    GlobalCache& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    if (global.buffers.size() >= limits().global_entries) {
      return false;
    }
    global.buffers.push_back(std::move(buffer));
    return true;
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

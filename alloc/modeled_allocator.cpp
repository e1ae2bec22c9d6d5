// Size-class allocator models over operator new. Three flavours:
//
//   je  - jemalloc-shaped: per-thread caches; overflow flushes a fraction
//         of the bin to the owners' locked arena bins, one lock hold per
//         distinct home arena (jemalloc's tcache_bin_flush), paying the
//         modelled remote penalty for every block owned by another
//         thread under that hold (the paper's section 3.2 mechanism:
//         batched remote frees overflow the tcache and serialize on bin
//         locks).
//   tc  - tcmalloc-shaped: like je, but overflow returns the entire bin
//         to the central free list in small locked chunks, so contention
//         on the central lock is worse.
//   mi  - mimalloc-shaped: a remote free is a single atomic push onto the
//         owning thread's delayed-free stack; the owner absorbs it on its
//         next allocation. No locks, no remote penalty: the reason the
//         paper finds mimalloc immune to RBF.
//   system - direct operator new/delete with stats only (no model).
//
// Blocks above the largest size class bypass the caches entirely.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <mutex>
#include <new>
#include <stdexcept>
#include <vector>

#include "alloc/backends.hpp"
#include "core/timing.hpp"

namespace emr::alloc {
namespace {

constexpr int kNumClasses = 7;  // 64, 128, 256, 512, 1024, 2048, 4096
constexpr std::size_t kMinClassSize = 64;
constexpr std::size_t kMaxClassSize = kMinClassSize << (kNumClasses - 1);
constexpr std::size_t kHeaderSize = 16;

std::size_t class_size(int cls) { return kMinClassSize << cls; }

int class_for(std::size_t size) {
  std::size_t s = kMinClassSize;
  for (int c = 0; c < kNumClasses; ++c, s <<= 1) {
    if (size <= s) return c;
  }
  return -1;  // large allocation
}

struct BlockHeader {
  std::int32_t owner;   // tid of the last thread to allocate this block
  std::int32_t cls;     // size class index, or -1 for large
  BlockHeader* next;    // intrusive free-list link (valid while free)
};

BlockHeader* header_of(void* user) {
  return reinterpret_cast<BlockHeader*>(static_cast<char*>(user) -
                                        kHeaderSize);
}
void* user_of(BlockHeader* h) {
  return reinterpret_cast<char*>(h) + kHeaderSize;
}

struct FreeList {
  BlockHeader* head = nullptr;
  std::size_t count = 0;

  void push(BlockHeader* b) {
    b->next = head;
    head = b;
    ++count;
  }
  BlockHeader* pop() {
    BlockHeader* b = head;
    if (b != nullptr) {
      head = b->next;
      --count;
    }
    return b;
  }
};

struct alignas(64) PerThread {
  FreeList bins[kNumClasses];
  FreeList deferred[kNumClasses];     // deferred_flush staging
  std::atomic<BlockHeader*> remote_head{nullptr};  // mi delayed frees
  std::vector<void*> os_blocks;       // every operator-new block we made
  AllocTotals totals;
};

/// A central bin set guarded by one lock. je/mi get one Arena per thread
/// (jemalloc's per-arena bins: a flushed block goes HOME, to its owner's
/// arena, and a refill only draws from your own); tc gets a single shared
/// Arena (tcmalloc's global central free lists).
struct Arena {
  std::mutex mu;
  FreeList bins[kNumClasses];
};

enum class Flavor { kJe, kTc, kMi, kSystem };

class ModeledAllocator final : public Allocator {
 public:
  ModeledAllocator(Flavor flavor, const AllocConfig& cfg)
      : flavor_(flavor),
        cfg_(cfg),
        threads_(static_cast<std::size_t>(std::max(cfg.max_threads, 1))),
        arenas_(flavor == Flavor::kTc ? 1 : threads_.size()) {
    if (cfg_.tcache_cap == 0) cfg_.tcache_cap = 1;
    cfg_.flush_fraction = std::min(std::max(cfg_.flush_fraction, 0.01), 1.0);
  }

  ~ModeledAllocator() override {
    // Everything the model ever took from the OS is in the per-thread
    // registries, regardless of which cache holds it now.
    for (PerThread& t : threads_) {
      for (void* raw : t.os_blocks) ::operator delete(raw);
    }
  }

  void* allocate(int tid, std::size_t size) override {
    PerThread& t = thread(tid);
    ++t.totals.n_alloc;
    const int cls = class_for(size);
    if (cls < 0) return os_alloc_large(t, size);

    if (BlockHeader* b = t.bins[cls].pop()) return publish(b, tid);

    if (flavor_ == Flavor::kMi) {
      if (absorb_remote(t, tid)) {
        if (BlockHeader* b = t.bins[cls].pop()) return publish(b, tid);
      }
    }

    if (flavor_ != Flavor::kSystem) {
      if (BlockHeader* b = central_grab(t, tid, cls)) return publish(b, tid);
    }
    return publish(os_alloc(t, cls), tid);
  }

  void deallocate(int tid, void* p) override {
    PerThread& t = thread(tid);
    const std::uint64_t t0 = now_ns();
    ++t.totals.n_free;
    BlockHeader* h = header_of(p);
    if (h->cls < 0) {
      os_free_large(h);
      t.totals.ns_in_free += now_ns() - t0;
      return;
    }
    const bool remote = h->owner != tid;
    if (remote) ++t.totals.n_remote_free;

    switch (flavor_) {
      case Flavor::kSystem:
        // No caching model: the block goes straight back to the OS.
        os_free(t, h);
        break;
      case Flavor::kMi:
        if (remote) {
          // One atomic push to the owner's delayed-free stack; this is
          // the whole trick that makes mimalloc immune to RBF.
          push_remote(thread(h->owner), h);
        } else {
          t.bins[h->cls].push(h);
          if (t.bins[h->cls].count > cfg_.tcache_cap) flush_bin(t, h->cls);
        }
        break;
      case Flavor::kJe:
      case Flavor::kTc:
        t.bins[h->cls].push(h);
        if (t.bins[h->cls].count > cfg_.tcache_cap) flush_bin(t, h->cls);
        if (cfg_.deferred_flush) drain_deferred(t, h->cls, 2);
        break;
    }
    t.totals.ns_in_free += now_ns() - t0;
  }

  int home_lane(void* p) const override {
    const BlockHeader* h = header_of(p);
    return h->cls < 0 ? -1 : h->owner;
  }

  void free_local_hint(int tid, void* p) override {
    BlockHeader* h = header_of(p);
    if (h->cls >= 0 && h->owner != tid) {
      // Batched owner-stash hand-off: the block did cross lanes, so
      // remote attribution stays exact — but the per-block transfer
      // penalty is skipped by re-homing it into tid's cache before the
      // ordinary local free path runs (the mimalloc delayed-free
      // absorb, one layer up: the hand-off cost was paid once for the
      // whole stash, not per block).
      ++thread(tid).totals.n_remote_free;
      h->owner = tid;
    }
    deallocate(tid, p);
  }

  void flush_thread_caches() override {
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      PerThread& t = threads_[i];
      absorb_remote(t, static_cast<int>(i));
      if (flavor_ == Flavor::kSystem) continue;
      Arena& arena = home_arena(static_cast<int>(i));
      for (int c = 0; c < kNumClasses; ++c) {
        drain_deferred(t, c, t.deferred[c].count);
        std::lock_guard<std::mutex> lock(arena.mu);
        ++t.totals.n_lock;
        while (BlockHeader* b = t.bins[c].pop()) arena.bins[c].push(b);
      }
    }
  }

  AllocStats stats() const override {
    AllocStats s;
    for (const PerThread& t : threads_) {
      s.totals.n_alloc += t.totals.n_alloc;
      s.totals.n_free += t.totals.n_free;
      s.totals.n_remote_free += t.totals.n_remote_free;
      s.totals.n_flush += t.totals.n_flush;
      s.totals.n_lock += t.totals.n_lock;
      s.totals.ns_in_free += t.totals.ns_in_free;
      s.totals.ns_in_flush += t.totals.ns_in_flush;
      s.totals.ns_in_lock += t.totals.ns_in_lock;
    }
    s.bytes_mapped = os_current_.load(std::memory_order_relaxed);
    s.peak_bytes_mapped = os_peak_.load(std::memory_order_relaxed);
    return s;
  }

  const char* name() const override {
    switch (flavor_) {
      case Flavor::kJe:
        return "je";
      case Flavor::kTc:
        return "tc";
      case Flavor::kMi:
        return "mi";
      case Flavor::kSystem:
        return "system";
    }
    return "?";
  }

 private:
  PerThread& thread(int tid) {
    const std::size_t i = static_cast<std::size_t>(tid);
    return threads_[i < threads_.size() ? i : 0];
  }

  void* publish(BlockHeader* b, int tid) {
    b->owner = tid;
    return user_of(b);
  }

  BlockHeader* os_alloc(PerThread& t, int cls) {
    const std::size_t bytes = kHeaderSize + class_size(cls);
    void* raw = ::operator new(bytes);
    // Caching flavours hold OS memory until destruction; the registry is
    // how the destructor finds it. The system flavour frees for real in
    // deallocate(), so it must not register (double-free otherwise).
    if (flavor_ != Flavor::kSystem) t.os_blocks.push_back(raw);
    note_mapped(bytes);
    auto* h = static_cast<BlockHeader*>(raw);
    h->cls = cls;
    h->next = nullptr;
    return h;
  }

  void* os_alloc_large(PerThread& t, std::size_t size) {
    void* raw = ::operator new(kHeaderSize + size);
    note_mapped(kHeaderSize + size);
    auto* h = static_cast<BlockHeader*>(raw);
    h->owner = 0;
    h->cls = -1;
    h->next = reinterpret_cast<BlockHeader*>(size);  // stash for unmap
    (void)t;
    return user_of(h);
  }

  void os_free_large(BlockHeader* h) {
    const std::size_t size = reinterpret_cast<std::size_t>(h->next);
    note_unmapped(kHeaderSize + size);
    ::operator delete(h);
  }

  void os_free(PerThread& freeing, BlockHeader* h) {
    // System flavour only: the block goes straight back to the OS. The
    // system flavour never registers blocks (see os_alloc), so there is
    // nothing to unregister and the destructor cannot double-free.
    (void)freeing;
    note_unmapped(kHeaderSize + class_size(h->cls));
    ::operator delete(h);
  }

  void note_mapped(std::size_t bytes) {
    const std::uint64_t cur =
        os_current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = os_peak_.load(std::memory_order_relaxed);
    while (cur > peak &&
           !os_peak_.compare_exchange_weak(peak, cur,
                                           std::memory_order_relaxed)) {
    }
  }
  void note_unmapped(std::size_t bytes) {
    os_current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  Arena& home_arena(int owner) {
    if (arenas_.size() == 1) return arenas_[0];
    const std::size_t i = static_cast<std::size_t>(owner);
    return arenas_[i < arenas_.size() ? i : 0];
  }

  BlockHeader* central_grab(PerThread& t, int tid, int cls) {
    // jemalloc semantics: a refill only draws from YOUR arena — blocks
    // flushed to other threads' arenas are lost to you. tc's single
    // shared arena serves everyone.
    Arena& arena = home_arena(tid);
    const std::uint64_t t0 = now_ns();
    std::lock_guard<std::mutex> lock(arena.mu);
    t.totals.ns_in_lock += now_ns() - t0;
    ++t.totals.n_lock;
    FreeList& bin = arena.bins[cls];
    if (bin.count == 0) return nullptr;
    // Refill half a cache's worth so the lock isn't taken per block.
    std::size_t want = std::max<std::size_t>(cfg_.tcache_cap / 2, 1);
    BlockHeader* first = bin.pop();
    while (--want > 0 && bin.count > 0) t.bins[cls].push(bin.pop());
    return first;
  }

  /// Returns `n` blocks from `list` to their HOME arenas the way
  /// jemalloc's tcache_bin_flush does: take up to `chunk` blocks off the
  /// list, then lock the home arena of the first block left, move every
  /// block homed there under that one hold, and keep the rest for the
  /// next pass — one lock hold per distinct home arena per chunk. The
  /// grouping saves lock holds only: every foreign-owned block still
  /// pays the remote penalty (the modelled cross-socket cache-line
  /// transfer), and pays it under the hold. `chunk` bounds how many
  /// blocks one round moves (tcmalloc-style transfers).
  void central_return(PerThread& t, int tid, FreeList& list, int cls,
                      std::size_t n, std::size_t chunk) {
    while (n > 0 && list.count > 0) {
      // Detach the round in pop order, so each arena bin receives its
      // blocks in the order they left the cache.
      const std::size_t take = std::min({n, chunk, list.count});
      n -= take;
      BlockHeader* rest = nullptr;
      BlockHeader** tail = &rest;
      for (std::size_t i = 0; i < take; ++i) {
        BlockHeader* b = list.pop();
        *tail = b;
        tail = &b->next;
      }
      *tail = nullptr;
      while (rest != nullptr) {
        Arena& arena = home_arena(rest->owner);
        const std::uint64_t t0 = now_ns();
        std::lock_guard<std::mutex> lock(arena.mu);
        t.totals.ns_in_lock += now_ns() - t0;
        ++t.totals.n_lock;
        BlockHeader** link = &rest;
        while (BlockHeader* b = *link) {
          if (&home_arena(b->owner) != &arena) {
            link = &b->next;
            continue;
          }
          *link = b->next;
          if (b->owner != tid) spin_for_ns(cfg_.remote_free_penalty_ns);
          arena.bins[cls].push(b);
        }
      }
    }
  }

  void flush_bin(PerThread& t, int cls) {
    const int tid = static_cast<int>(&t - threads_.data());
    ++t.totals.n_flush;
    const std::uint64_t t0 = now_ns();
    std::size_t nmove;
    std::size_t chunk;
    if (flavor_ == Flavor::kTc) {
      nmove = t.bins[cls].count;  // tcmalloc: return the whole list
      chunk = 16;
    } else {
      nmove = static_cast<std::size_t>(
          std::ceil(static_cast<double>(cfg_.tcache_cap) *
                    cfg_.flush_fraction));
      chunk = nmove;
    }
    if (cfg_.deferred_flush) {
      // Stage the overflow locally; drain_deferred amortizes the locked
      // central return over later frees.
      for (std::size_t i = 0; i < nmove && t.bins[cls].count > 0; ++i) {
        t.deferred[cls].push(t.bins[cls].pop());
      }
    } else {
      central_return(t, tid, t.bins[cls], cls, nmove, chunk);
    }
    t.totals.ns_in_flush += now_ns() - t0;
  }

  void drain_deferred(PerThread& t, int cls, std::size_t n) {
    if (t.deferred[cls].count == 0 || n == 0) return;
    const int tid = static_cast<int>(&t - threads_.data());
    const std::uint64_t t0 = now_ns();
    central_return(t, tid, t.deferred[cls], cls, n, n);
    t.totals.ns_in_flush += now_ns() - t0;
  }

  void push_remote(PerThread& owner, BlockHeader* h) {
    BlockHeader* head = owner.remote_head.load(std::memory_order_relaxed);
    do {
      h->next = head;
    } while (!owner.remote_head.compare_exchange_weak(
        head, h, std::memory_order_release, std::memory_order_relaxed));
  }

  bool absorb_remote(PerThread& t, int tid) {
    (void)tid;
    BlockHeader* chain =
        t.remote_head.exchange(nullptr, std::memory_order_acquire);
    if (chain == nullptr) return false;
    while (chain != nullptr) {
      BlockHeader* next = chain->next;
      t.bins[chain->cls].push(chain);
      chain = next;
    }
    return true;
  }

  Flavor flavor_;
  AllocConfig cfg_;
  std::vector<PerThread> threads_;
  std::deque<Arena> arenas_;  // deque: Arena holds a non-movable mutex
  std::atomic<std::uint64_t> os_current_{0};
  std::atomic<std::uint64_t> os_peak_{0};
};

}  // namespace

namespace detail {

std::unique_ptr<Allocator> make_model(const std::string& flavor,
                                      const AllocConfig& cfg) {
  Flavor f;
  if (flavor == "je") {
    f = Flavor::kJe;
  } else if (flavor == "tc") {
    f = Flavor::kTc;
  } else if (flavor == "mi") {
    f = Flavor::kMi;
  } else if (flavor == "system") {
    f = Flavor::kSystem;
  } else {
    throw std::invalid_argument("unknown allocator model: " + flavor);
  }
  return std::make_unique<ModeledAllocator>(f, cfg);
}

}  // namespace detail

}  // namespace emr::alloc

// Real allocator backends: thin Allocator wrappers over jemalloc,
// tcmalloc (gperftools) and mimalloc, built per-library when CMake's
// EMR_REAL_ALLOC=ON finds them (EMR_HAVE_JEMALLOC / EMR_HAVE_TCMALLOC /
// EMR_HAVE_MIMALLOC compile gates; see docs/ALLOCATORS.md).
//
// Each wrapper calls the library's *prefixed* entry points (mallocx/
// dallocx, tc_malloc/tc_free, mi_malloc/mi_free) rather than plain
// malloc, so all three libraries can link into one binary and the
// benches can compare them side by side without symbol interposition
// picking a winner.
//
// The wrapper keeps the model's 16-byte header in front of every block,
// recording the allocating lane and the size, so the stats seams stay
// exact where the harness depends on them: n_alloc/n_free per lane,
// n_remote_free (freed by a lane that didn't allocate — only counted for
// blocks inside the model's size-class range, mirroring the model's
// large-allocation bypass), and bytes_mapped/peak. What it deliberately
// does NOT model: tcache flushes, central-bin lock time, or the spin
// penalty — the whole point is that the real library pays its real
// costs, so n_flush/n_lock/ns_in_flush/ns_in_lock read zero and the figures
// show actual malloc behavior instead of the model's.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <vector>

#include "alloc/backends.hpp"
#include "core/timing.hpp"

#if defined(EMR_HAVE_JEMALLOC)
extern "C" {
void* mallocx(std::size_t size, int flags);
void dallocx(void* ptr, int flags);
}
#endif
#if defined(EMR_HAVE_TCMALLOC)
extern "C" {
void* tc_malloc(std::size_t size);
void tc_free(void* ptr);
}
#endif
#if defined(EMR_HAVE_MIMALLOC)
extern "C" {
void* mi_malloc(std::size_t size);
void mi_free(void* ptr);
}
#endif

namespace emr::alloc {
namespace {

#if defined(EMR_HAVE_JEMALLOC) || defined(EMR_HAVE_TCMALLOC) || \
    defined(EMR_HAVE_MIMALLOC)

// Mirrors the model's class range: blocks past the largest size class
// bypass the caches there, and bypass remote-free accounting here.
constexpr std::size_t kMaxClassSize = 4096;
constexpr std::size_t kHeaderSize = 16;

struct RealHeader {
  std::int32_t owner;  // lane that allocated this block
  std::int32_t cls;    // 0 = classed, -1 = large (>= bypass threshold)
  std::uint64_t size;  // user size, for the bytes_mapped ledger
};
static_assert(sizeof(RealHeader) == kHeaderSize);

struct alignas(64) RealLane {
  AllocTotals totals;
};

using MallocFn = void* (*)(std::size_t);
using FreeFn = void (*)(void*);

class RealAllocator final : public Allocator {
 public:
  RealAllocator(const char* name, MallocFn m, FreeFn f,
                const AllocConfig& cfg)
      : name_(name),
        malloc_(m),
        free_(f),
        lanes_(static_cast<std::size_t>(
            cfg.max_threads < 1 ? 1 : cfg.max_threads)) {}

  void* allocate(int tid, std::size_t size) override {
    RealLane& t = lane(tid);
    ++t.totals.n_alloc;
    void* raw = malloc_(kHeaderSize + size);
    if (raw == nullptr) throw std::bad_alloc();
    auto* h = static_cast<RealHeader*>(raw);
    h->owner = tid;
    h->cls = size <= kMaxClassSize ? 0 : -1;
    h->size = size;
    note_mapped(kHeaderSize + size);
    return static_cast<char*>(raw) + kHeaderSize;
  }

  void deallocate(int tid, void* p) override {
    RealLane& t = lane(tid);
    const std::uint64_t t0 = now_ns();
    ++t.totals.n_free;
    auto* h = reinterpret_cast<RealHeader*>(static_cast<char*>(p) -
                                            kHeaderSize);
    if (h->cls >= 0 && h->owner != tid) ++t.totals.n_remote_free;
    note_unmapped(kHeaderSize + h->size);
    free_(h);
    t.totals.ns_in_free += now_ns() - t0;
  }

  int home_lane(void* p) const override {
    const auto* h = reinterpret_cast<const RealHeader*>(
        static_cast<const char*>(p) - kHeaderSize);
    return h->cls < 0 ? -1 : h->owner;
  }

  // free_local_hint: the base-class default (plain deallocate) is
  // already right for real backends — there is no modelled penalty to
  // skip, the library's own cross-thread machinery handles the
  // hand-off, and deallocate keeps n_remote_free attribution exact.

  AllocStats stats() const override {
    AllocStats s;
    for (const RealLane& t : lanes_) {
      s.totals.n_alloc += t.totals.n_alloc;
      s.totals.n_free += t.totals.n_free;
      s.totals.n_remote_free += t.totals.n_remote_free;
      s.totals.ns_in_free += t.totals.ns_in_free;
    }
    s.bytes_mapped = current_.load(std::memory_order_relaxed);
    s.peak_bytes_mapped = peak_.load(std::memory_order_relaxed);
    return s;
  }

  const char* name() const override { return name_; }

 private:
  RealLane& lane(int tid) {
    const std::size_t i = static_cast<std::size_t>(tid);
    return lanes_[i < lanes_.size() ? i : 0];
  }

  void note_mapped(std::size_t bytes) {
    const std::uint64_t cur =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (cur > peak &&
           !peak_.compare_exchange_weak(peak, cur,
                                        std::memory_order_relaxed)) {
    }
  }
  void note_unmapped(std::size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  const char* name_;
  MallocFn malloc_;
  FreeFn free_;
  std::vector<RealLane> lanes_;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> peak_{0};
};

#if defined(EMR_HAVE_JEMALLOC)
void* je_malloc_shim(std::size_t size) { return mallocx(size, 0); }
void je_free_shim(void* p) { dallocx(p, 0); }
#endif

#endif  // any EMR_HAVE_*

}  // namespace

namespace detail {

bool real_available(const std::string& flavor) {
#if defined(EMR_HAVE_JEMALLOC)
  if (flavor == "je") return true;
#endif
#if defined(EMR_HAVE_TCMALLOC)
  if (flavor == "tc") return true;
#endif
#if defined(EMR_HAVE_MIMALLOC)
  if (flavor == "mi") return true;
#endif
  (void)flavor;
  return false;
}

std::unique_ptr<Allocator> make_real(const std::string& flavor,
                                     const AllocConfig& cfg) {
#if defined(EMR_HAVE_JEMALLOC)
  if (flavor == "je") {
    return std::make_unique<RealAllocator>("je(real)", je_malloc_shim,
                                           je_free_shim, cfg);
  }
#endif
#if defined(EMR_HAVE_TCMALLOC)
  if (flavor == "tc") {
    return std::make_unique<RealAllocator>("tc(real)", tc_malloc, tc_free,
                                           cfg);
  }
#endif
#if defined(EMR_HAVE_MIMALLOC)
  if (flavor == "mi") {
    return std::make_unique<RealAllocator>("mi(real)", mi_malloc, mi_free,
                                           cfg);
  }
#endif
  (void)cfg;
  throw std::invalid_argument(
      "real allocator backend '" + flavor +
      "' is not linked into this build (the library was not found at "
      "configure time); use the deterministic model '" + flavor +
      "_model', or install the library and reconfigure with "
      "-DEMR_REAL_ALLOC=ON");
}

}  // namespace detail

}  // namespace emr::alloc

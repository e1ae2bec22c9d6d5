// Allocator wrapper the benchmark puts between the reclaimer and the
// modeled allocator. It always counts calls per lane (the teardown check
// compares those counts with the allocator's own AllocStats); with
// timing on it also clocks every call, keeps a histogram of free-call
// durations, and classifies a plain deallocate of a block whose home is
// another lane as a remote free. home_lane and free_local_hint are
// forwarded, so home-flush routing sees the real allocator through it.
//
// Lanes are registration slots and one thread drives a slot at a time,
// so the counters are plain fields; the runner reads them only while
// the workers are parked or joined.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/timing.hpp"
#include "histogram.hpp"

namespace perfbench {

struct alignas(64) AllocLane {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;         // deallocate calls
  std::uint64_t hinted_frees = 0;  // free_local_hint calls (routed blocks)
  std::uint64_t remote_frees = 0;  // timed deallocates of a foreign block
  std::uint64_t alloc_ns = 0;
  std::uint64_t free_ns = 0;       // deallocate + free_local_hint
  Histogram free_hist;             // per free call, timed calls only
};

class TracedAllocator final : public emr::alloc::Allocator {
 public:
  TracedAllocator(std::unique_ptr<emr::alloc::Allocator> inner, int lanes)
      : inner_(std::move(inner)),
        lanes_(static_cast<std::size_t>(lanes)) {}

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }

  void* allocate(int tid, std::size_t size) override {
    AllocLane& l = lane(tid);
    ++l.allocs;
    if (!timing()) return inner_->allocate(tid, size);
    const std::uint64_t t0 = emr::now_ns();
    void* p = inner_->allocate(tid, size);
    l.alloc_ns += emr::now_ns() - t0;
    return p;
  }

  void deallocate(int tid, void* p) override {
    AllocLane& l = lane(tid);
    ++l.frees;
    if (!timing()) return inner_->deallocate(tid, p);
    const int home = inner_->home_lane(p);
    if (home >= 0 && home != tid) ++l.remote_frees;
    const std::uint64_t t0 = emr::now_ns();
    inner_->deallocate(tid, p);
    note_free(l, emr::now_ns() - t0);
  }

  void free_local_hint(int tid, void* p) override {
    AllocLane& l = lane(tid);
    ++l.hinted_frees;
    if (!timing()) return inner_->free_local_hint(tid, p);
    const std::uint64_t t0 = emr::now_ns();
    inner_->free_local_hint(tid, p);
    note_free(l, emr::now_ns() - t0);
  }

  int home_lane(void* p) const override { return inner_->home_lane(p); }
  void flush_thread_caches() override { inner_->flush_thread_caches(); }
  emr::alloc::AllocStats stats() const override { return inner_->stats(); }
  const char* name() const override { return inner_->name(); }

  const std::vector<AllocLane>& lanes() const { return lanes_; }
  void clear_free_hists() {
    for (AllocLane& l : lanes_) l.free_hist.clear();
  }

 private:
  bool timing() const { return timing_.load(std::memory_order_relaxed); }
  AllocLane& lane(int tid) { return lanes_[static_cast<std::size_t>(tid)]; }
  static void note_free(AllocLane& l, std::uint64_t ns) {
    l.free_ns += ns;
    l.free_hist.record(ns);
  }

  std::unique_ptr<emr::alloc::Allocator> inner_;
  std::vector<AllocLane> lanes_;
  std::atomic<bool> timing_{false};
};

}  // namespace perfbench

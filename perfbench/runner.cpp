// perfbench runner: builds one workload's layers through their public
// factories (alloc::make_allocator, smr::make_reclaimer, ds::make_set /
// ds::make_queue), drives them from three closed-loop worker threads,
// checks every result it can check, and prints the metrics. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from a traced window (see
// README.md for what each should move).
//
//   perfbench_runner --workload abtree-batch --seed 1 --seconds 10
//                    --trace 0 [--trace-out FILE]
#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/factory.hpp"
#include "core/rng.hpp"
#include "core/timing.hpp"
#include "ds/queue.hpp"
#include "ds/set.hpp"
#include "histogram.hpp"
#include "smr/factory.hpp"
#include "traced_allocator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using emr::now_ns;

constexpr int kWorkers = 3;
constexpr std::uint64_t kPenaltyNs = 150;  // explicit; no calibration
constexpr std::size_t kBagSize = 2048;
constexpr const char* kAllocator = "je_model";
constexpr int kSetups = 5;          // setup_s is the median of these
constexpr double kWarmupS = 1.0;
constexpr std::uint64_t kQueueDepth = 4096;
constexpr auto kGarbageSamplePeriod = std::chrono::milliseconds(5);
// A measured window is cut into this many equal slices; the end-to-end
// metrics are medians over the slices, so a burst of host interference
// in one slice does not move them.
constexpr int kSlices = 10;
constexpr double kMiB = 1024.0 * 1024.0;

enum Kind { kInsert, kErase, kLookup, kEnqueue, kDequeue, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"insert", "erase", "lookup",
                                               "enqueue", "dequeue"};

struct Workload {
  const char* name;
  const char* ds;
  const char* reclaimer;
  bool queue;
  std::uint64_t keyrange;  // sets: keys are uniform in [0, keyrange)
  int lookup_pct;
  int insert_pct;          // erases take the rest
};

constexpr Workload kWorkloads[] = {
    {"abtree-batch", "abtree", "debra", false, 1u << 20, 0, 50},
    {"abtree-af", "abtree", "debra_af", false, 1u << 20, 0, 50},
    {"occtree-read", "occtree", "he_af", false, 1u << 16, 90, 5},
    {"queue-hf", "msqueue", "debra_af_hf", true, 0, 0, 0},
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) o.w = &w;
        }
        if (o.w == nullptr) usage("unknown workload " + v);
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.w == nullptr || !have_seed || !have_trace) {
    usage("--workload, --seed and --trace are required");
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return o;
}

// Multiset hash for the queue check: the sum of mix(v) over the values
// enqueued must equal the sum over the values dequeued or left over.
std::uint64_t mix(std::uint64_t v) {
  std::uint64_t s = v;
  return emr::splitmix64(s);
}

constexpr int kTagShift = 48;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kTagShift) - 1;

// ---------------------------------------------------------------- layers

struct Instance {
  // Declaration order is destruction order reversed: the allocator
  // outlives the reclaimer, which outlives the structure and handles.
  std::unique_ptr<TracedAllocator> alloc;
  emr::smr::ReclaimerBundle bundle;
  std::unique_ptr<emr::ds::ConcurrentSet> set;
  std::unique_ptr<emr::ds::ConcurrentQueue> queue;
  std::vector<emr::smr::ThreadHandle> handles;  // one per worker
  std::uint64_t prefill_hash = 0;  // queue prefill, tagged kWorkers
  std::size_t node_size = 0;
};

// The set prefill: a seed-chosen half of the key range, in seed-shuffled
// insertion order.
std::vector<std::uint64_t> prefill_keys(const Workload& wl, std::uint64_t seed) {
  std::vector<std::uint64_t> keys(wl.keyrange);
  for (std::uint64_t k = 0; k < wl.keyrange; ++k) keys[k] = k;
  emr::Rng rng(seed ^ 0xC3A5C85C97CB3127ULL);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_range(i)]);
  }
  keys.resize(keys.size() / 2);
  return keys;
}

// Builds the layers, registers the workers' handles and prefills, all on
// the calling thread. Set keys go in round-robin over the worker handles,
// so each worker's allocator lane owns a share of the nodes; so do the
// kQueueDepth queue values, tagged with producer id kWorkers.
std::unique_ptr<Instance> build(const Workload& wl,
                                const std::vector<std::uint64_t>& keys) {
  auto in = std::make_unique<Instance>();
  emr::smr::SmrConfig scfg;
  scfg.num_threads = kWorkers;
  scfg.batch_size = kBagSize;
  emr::alloc::AllocConfig acfg;
  acfg.max_threads = static_cast<int>(scfg.slot_capacity());
  acfg.remote_free_penalty_ns = kPenaltyNs;
  acfg.remote_penalty_explicit = true;
  in->alloc = std::make_unique<TracedAllocator>(
      emr::alloc::make_allocator(kAllocator, acfg), acfg.max_threads);
  emr::smr::SmrContext ctx;
  ctx.allocator = in->alloc.get();
  in->bundle = emr::smr::make_reclaimer(wl.reclaimer, ctx, scfg);
  emr::smr::Reclaimer* r = in->bundle.reclaimer.get();
  for (int i = 0; i < kWorkers; ++i) in->handles.push_back(r->register_thread());

  if (wl.queue) {
    emr::ds::QueueConfig qcfg;
    qcfg.num_threads = kWorkers;
    in->queue = emr::ds::make_queue(wl.ds, qcfg, r);
    in->node_size = in->queue->node_size();
    const std::uint64_t tag = std::uint64_t{kWorkers} << kTagShift;
    for (std::uint64_t i = 0; i < kQueueDepth; ++i) {
      if (!in->queue->enqueue(in->handles[i % kWorkers], tag | i)) {
        throw std::runtime_error("queue prefill: enqueue refused");
      }
      in->prefill_hash += mix(tag | i);
    }
    return in;
  }

  emr::ds::SetConfig dcfg;
  dcfg.keyrange = wl.keyrange;
  dcfg.num_threads = kWorkers;
  in->set = emr::ds::make_set(wl.ds, dcfg, r);
  in->node_size = in->set->node_size();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!in->set->insert(in->handles[i % kWorkers], keys[i])) {
      throw std::runtime_error("set prefill: insert of a fresh key refused");
    }
  }
  return in;
}

// Releases the handles, destroys the structure, flushes the reclaimer
// and the allocator's caches, and checks the ledgers: nothing pending,
// every block allocated was freed, every stashed block was flushed, and
// the wrapper counted exactly the calls the allocator counted.
void teardown(Instance& in, std::vector<std::string>& errors) {
  in.handles.clear();
  in.set.reset();
  in.queue.reset();
  emr::smr::Reclaimer& r = *in.bundle.reclaimer;
  r.flush_all();
  in.alloc->flush_thread_caches();
  const emr::smr::SmrStats st = r.stats();
  const emr::alloc::AllocStats as = in.alloc->stats();
  std::uint64_t allocs = 0, frees = 0;
  for (const AllocLane& l : in.alloc->lanes()) {
    allocs += l.allocs;
    frees += l.frees + l.hinted_frees;
  }
  const emr::smr::FreeExecutor& ex = r.executor();
  auto fail = [&](const std::string& what) { errors.push_back("teardown: " + what); };
  if (st.pending != 0) fail("pending=" + std::to_string(st.pending));
  if (as.totals.n_alloc != as.totals.n_free) {
    fail("n_alloc=" + std::to_string(as.totals.n_alloc) +
         " n_free=" + std::to_string(as.totals.n_free));
  }
  if (allocs != as.totals.n_alloc || frees != as.totals.n_free) {
    fail("wrapper counted " + std::to_string(allocs) + " allocs / " +
         std::to_string(frees) + " frees, allocator " +
         std::to_string(as.totals.n_alloc) + " / " +
         std::to_string(as.totals.n_free));
  }
  if (ex.total_stashed() != ex.total_flushed() || ex.total_stash_backlog() != 0) {
    fail("stash ledger stashed=" + std::to_string(ex.total_stashed()) +
         " flushed=" + std::to_string(ex.total_flushed()));
  }
}

// --------------------------------------------------------------- workers

struct SchedSample {
  std::uint64_t run_delay_ns = 0;
  std::uint64_t nivcsw = 0;
};

// This thread's run-queue delay (/proc/thread-self/schedstat, field 2)
// and involuntary context switches (getrusage).
SchedSample sched_now() {
  SchedSample s;
  if (std::FILE* f = std::fopen("/proc/thread-self/schedstat", "r")) {
    unsigned long long on_cpu = 0, delay = 0;
    if (std::fscanf(f, "%llu %llu", &on_cpu, &delay) == 2) s.run_delay_ns = delay;
    std::fclose(f);
  }
  rusage ru{};
  if (getrusage(RUSAGE_THREAD, &ru) == 0) {
    s.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  }
  return s;
}

// What one worker measured in one window; cleared while it is parked.
struct WindowCounts {
  std::array<Histogram, kSlices> lat;     // every op, by slice
  std::array<std::uint64_t, kSlices> slice_ops{};
  std::array<Histogram, kNumKinds> kind;  // traced windows only
  std::array<std::uint64_t, kNumKinds> kind_ops{};
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // ops that threw
  std::uint64_t updates = 0;
  std::uint64_t update_hits = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t span_ns = 0;  // traced windows only
  std::uint64_t run_delay_ns = 0;
  std::uint64_t nivcsw = 0;

  void clear() {
    for (Histogram& h : lat) h.clear();
    slice_ops.fill(0);
    for (Histogram& h : kind) h.clear();
    kind_ops.fill(0);
    ops = failed = updates = update_hits = empty_dequeues = span_ns = 0;
    run_delay_ns = nivcsw = 0;
  }
};

struct alignas(64) Worker {
  int id = 0;
  emr::Rng rng{0};
  WindowCounts win;
  std::string first_error;
  // Set check: successful inserts minus successful erases, per key,
  // over the whole run (warm-up included).
  std::vector<std::int32_t> delta;
  // Queue check.
  std::uint64_t next_seq = 0;
  std::uint64_t op_index = 0;
  std::uint64_t enq_count = 0, enq_hash = 0;
  std::uint64_t deq_count = 0, deq_hash = 0;
  std::array<std::int64_t, kWorkers + 1> last_seq{};  // per producer
  std::uint64_t order_violations = 0;
  std::uint64_t refused_enqueues = 0;
};

// Window modes: warm-up records nothing; measure records latency and
// counts; trace also times every allocator call and each op by kind.
enum Mode { kWarmup = 0, kMeasure = 1, kTrace = 2 };

struct Control {
  std::atomic<bool> pause{true};  // workers start parked
  std::atomic<bool> stop{false};
  std::atomic<int> parked{0};
  std::atomic<int> mode{kWarmup};
  std::atomic<int> slice{0};
};

void note_dequeued(std::uint64_t v, std::array<std::int64_t, kWorkers + 1>& last,
                   std::uint64_t& violations) {
  const std::uint64_t p = v >> kTagShift;
  const auto seq = static_cast<std::int64_t>(v & kSeqMask);
  if (p > kWorkers || seq <= last[p]) {
    ++violations;
    return;
  }
  last[p] = seq;
}

inline void one_op(Worker& w, const Workload& wl, Instance& in, int mode, int slice) {
  emr::smr::ThreadHandle& h = in.handles[static_cast<std::size_t>(w.id)];
  Kind k;
  std::uint64_t key = 0;
  if (wl.queue) {
    k = (w.op_index++ & 1) != 0 ? kDequeue : kEnqueue;
    key = (std::uint64_t{static_cast<unsigned>(w.id)} << kTagShift) | w.next_seq;
  } else {
    const int r = static_cast<int>(w.rng.next_range(100));
    k = r < wl.lookup_pct                   ? kLookup
        : r < wl.lookup_pct + wl.insert_pct ? kInsert
                                            : kErase;
    key = w.rng.next_range(wl.keyrange);
  }
  bool ok = false;
  std::uint64_t out = 0;
  const std::uint64_t t0 = now_ns();
  try {
    switch (k) {
      case kInsert: ok = in.set->insert(h, key); break;
      case kErase: ok = in.set->erase(h, key); break;
      case kLookup: ok = in.set->contains(h, key); break;
      case kEnqueue: ok = in.queue->enqueue(h, key); break;
      case kDequeue: ok = in.queue->dequeue(h, &out); break;
      case kNumKinds: break;
    }
  } catch (const std::exception& e) {
    if (w.first_error.empty()) w.first_error = e.what();
    if (mode != kWarmup) ++w.win.failed;
    return;
  }
  const std::uint64_t dt = now_ns() - t0;

  switch (k) {
    case kInsert: if (ok) ++w.delta[key]; break;
    case kErase: if (ok) --w.delta[key]; break;
    case kLookup: break;
    case kEnqueue:
      if (ok) {
        ++w.next_seq;
        ++w.enq_count;
        w.enq_hash += mix(key);
      } else {
        ++w.refused_enqueues;
      }
      break;
    case kDequeue:
      if (ok) {
        ++w.deq_count;
        w.deq_hash += mix(out);
        note_dequeued(out, w.last_seq, w.order_violations);
      }
      break;
    case kNumKinds: break;
  }
  if (mode == kWarmup) return;
  WindowCounts& c = w.win;
  ++c.ops;
  ++c.slice_ops[slice];
  c.lat[slice].record(dt);
  if (k != kLookup) {
    ++c.updates;
    if (ok) ++c.update_hits;
  }
  if (k == kDequeue && !ok) ++c.empty_dequeues;
  if (mode == kTrace) {
    c.kind[k].record(dt);
    ++c.kind_ops[k];
    c.span_ns += dt;
  }
}

void worker_main(Worker& w, const Workload& wl, Instance& in, Control& ctl) {
  for (;;) {
    ctl.parked.fetch_add(1, std::memory_order_acq_rel);
    while (ctl.pause.load(std::memory_order_acquire)) std::this_thread::yield();
    if (ctl.stop.load(std::memory_order_acquire)) return;
    const int mode = ctl.mode.load(std::memory_order_relaxed);
    const SchedSample s0 = sched_now();
    while (!ctl.pause.load(std::memory_order_relaxed)) {
      one_op(w, wl, in, mode, ctl.slice.load(std::memory_order_relaxed));
    }
    const SchedSample s1 = sched_now();
    w.win.run_delay_ns += s1.run_delay_ns - s0.run_delay_ns;
    w.win.nivcsw += s1.nivcsw - s0.nivcsw;
  }
}

// ---------------------------------------------------------------- windows

struct Snapshot {
  std::vector<AllocLane> lanes;  // counters only; histograms not copied
  emr::alloc::AllocStats alloc;
  emr::smr::SmrStats smr;
};

Snapshot snapshot(const Instance& in) {
  Snapshot s;
  for (const AllocLane& l : in.alloc->lanes()) {
    AllocLane c;
    c.allocs = l.allocs;
    c.frees = l.frees;
    c.hinted_frees = l.hinted_frees;
    c.remote_frees = l.remote_frees;
    c.alloc_ns = l.alloc_ns;
    c.free_ns = l.free_ns;
    s.lanes.push_back(std::move(c));
  }
  s.alloc = in.alloc->stats();
  s.smr = in.bundle.reclaimer->stats_with_lanes();
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct WindowResult {
  double seconds = 0;
  WindowCounts counts;  // merged over workers
  Histogram lat;        // every slice merged
  // Per slice: throughput (Mops/s), latency quantiles (ns), mean garbage.
  std::vector<double> slice_mops, slice_p50, slice_p999, slice_p9999;
  std::vector<double> slice_garbage_bytes;
  Histogram free_hist;
  std::uint64_t allocs = 0, frees = 0, remote_frees = 0;
  std::uint64_t alloc_ns = 0, free_ns = 0;
  std::uint64_t flushes = 0, flush_ns = 0, lock_ns = 0, peak_mapped = 0;
  std::uint64_t retired = 0, epochs = 0, drained = 0, stashed = 0, flushed = 0;
  double garbage_max_bytes = 0;
  std::uint64_t garbage_samples = 0;

  double mops() const { return median(slice_mops); }
  double per_op(std::uint64_t v) const {
    return static_cast<double>(v) / static_cast<double>(std::max<std::uint64_t>(counts.ops, 1));
  }
};

class Runner {
 public:
  Runner(const Workload& wl, Instance& in, std::uint64_t seed)
      : wl_(wl), in_(in), workers_(kWorkers) {
    for (int i = 0; i < kWorkers; ++i) {
      Worker& w = workers_[static_cast<std::size_t>(i)];
      w.id = i;
      w.rng = emr::Rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i) + 1);
      w.last_seq.fill(-1);
      if (!wl.queue) w.delta.assign(wl.keyrange, 0);
    }
  }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;
  ~Runner() { stop(); }

  void start() {
    for (Worker& w : workers_) {
      threads_.emplace_back(worker_main, std::ref(w), std::cref(wl_), std::ref(in_),
                            std::ref(ctl_));
    }
    wait_parked();
  }

  // Runs one window of `seconds` in `mode`; workers are parked before and
  // after, which is when the counters are read.
  WindowResult window(Mode mode, double seconds) {
    for (Worker& w : workers_) w.win.clear();
    in_.alloc->clear_free_hists();
    in_.alloc->set_timing(mode == kTrace);
    const Snapshot before = snapshot(in_);
    ctl_.mode.store(mode, std::memory_order_relaxed);
    ctl_.slice.store(0, std::memory_order_relaxed);
    ctl_.parked.store(0, std::memory_order_relaxed);
    const std::uint64_t t0 = now_ns();
    const auto slice_ns = static_cast<std::uint64_t>(seconds * 1e9 / kSlices);
    ctl_.pause.store(false, std::memory_order_release);

    // The garbage samples are taken here, between slice edges.
    WindowResult r;
    std::array<std::uint64_t, kSlices + 1> edge{};
    std::array<double, kSlices> gsum{};
    std::array<std::uint64_t, kSlices> gn{};
    std::uint64_t gmax = 0;
    edge[0] = t0;
    for (int s = 0; s < kSlices; ++s) {
      const std::uint64_t end = t0 + static_cast<std::uint64_t>(s + 1) * slice_ns;
      while (now_ns() < end) {
        std::this_thread::sleep_for(kGarbageSamplePeriod);
        if (mode == kWarmup) continue;
        const std::uint64_t pending = in_.bundle.reclaimer->stats().pending;
        gsum[s] += static_cast<double>(pending);
        ++gn[s];
        gmax = std::max(gmax, pending);
        ++r.garbage_samples;
      }
      if (s + 1 < kSlices) {
        edge[s + 1] = now_ns();
        ctl_.slice.store(s + 1, std::memory_order_relaxed);
      }
    }
    ctl_.pause.store(true, std::memory_order_release);
    const std::uint64_t t1 = now_ns();
    edge[kSlices] = t1;
    wait_parked();
    in_.alloc->set_timing(false);
    const Snapshot after = snapshot(in_);

    r.seconds = static_cast<double>(t1 - t0) / 1e9;
    const double node = static_cast<double>(in_.node_size);
    r.garbage_max_bytes = static_cast<double>(gmax) * node;
    for (Worker& w : workers_) {
      WindowCounts& c = r.counts;
      const WindowCounts& x = w.win;
      for (int s = 0; s < kSlices; ++s) {
        c.lat[s].merge(x.lat[s]);
        c.slice_ops[s] += x.slice_ops[s];
      }
      for (int k = 0; k < kNumKinds; ++k) {
        c.kind[k].merge(x.kind[k]);
        c.kind_ops[k] += x.kind_ops[k];
      }
      c.ops += x.ops;
      c.failed += x.failed;
      c.updates += x.updates;
      c.update_hits += x.update_hits;
      c.empty_dequeues += x.empty_dequeues;
      c.span_ns += x.span_ns;
      c.run_delay_ns += x.run_delay_ns;
      c.nivcsw += x.nivcsw;
    }
    for (int s = 0; s < kSlices; ++s) {
      const Histogram& h = r.counts.lat[s];
      r.lat.merge(h);
      r.slice_mops.push_back(static_cast<double>(r.counts.slice_ops[s]) * 1e3 /
                             static_cast<double>(edge[s + 1] - edge[s]));
      r.slice_p50.push_back(h.quantile(0.5));
      r.slice_p999.push_back(h.quantile(0.999));
      r.slice_p9999.push_back(h.quantile(0.9999));
      if (gn[s] > 0) {
        r.slice_garbage_bytes.push_back(gsum[s] / static_cast<double>(gn[s]) * node);
      }
    }
    const std::vector<AllocLane>& live = in_.alloc->lanes();
    for (std::size_t i = 0; i < live.size(); ++i) {
      const AllocLane& a = after.lanes[i];
      const AllocLane& b = before.lanes[i];
      r.allocs += a.allocs - b.allocs;
      r.frees += (a.frees - b.frees) + (a.hinted_frees - b.hinted_frees);
      r.remote_frees += a.remote_frees - b.remote_frees;
      r.alloc_ns += a.alloc_ns - b.alloc_ns;
      r.free_ns += a.free_ns - b.free_ns;
      r.free_hist.merge(live[i].free_hist);
    }
    r.flushes = after.alloc.totals.n_flush - before.alloc.totals.n_flush;
    r.flush_ns = after.alloc.totals.ns_in_flush - before.alloc.totals.ns_in_flush;
    r.lock_ns = after.alloc.totals.ns_in_lock - before.alloc.totals.ns_in_lock;
    r.peak_mapped = after.alloc.peak_bytes_mapped;
    r.retired = after.smr.retired - before.smr.retired;
    r.epochs = after.smr.epochs_advanced - before.smr.epochs_advanced;
    for (std::size_t i = 0; i < after.smr.lanes.size(); ++i) {
      const emr::smr::LaneStats& a = after.smr.lanes[i];
      const emr::smr::LaneStats& b = before.smr.lanes[i];
      r.drained += a.drained - b.drained;
      r.stashed += a.stashed - b.stashed;
      r.flushed += a.flushed - b.flushed;
    }
    return r;
  }

  void stop() {
    if (threads_.empty()) return;
    ctl_.stop.store(true, std::memory_order_release);
    ctl_.pause.store(false, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<Worker>& workers() { return workers_; }

 private:
  void wait_parked() {
    while (ctl_.parked.load(std::memory_order_acquire) < kWorkers) {
      std::this_thread::yield();
    }
  }

  const Workload& wl_;
  Instance& in_;
  std::vector<Worker> workers_;
  Control ctl_;
  std::vector<std::thread> threads_;  // declared last: joined first
};

// ----------------------------------------------------------------- checks

// Set check: for every key, the prefill membership plus every worker's
// successful inserts minus successful erases must be 0 or 1 and equal
// what contains() reports now.
void check_set(const Workload& wl, Instance& in, const std::vector<std::uint64_t>& keys,
               const std::vector<Worker>& ws, std::vector<std::string>& errors) {
  std::vector<std::uint8_t> initial(wl.keyrange, 0);
  for (std::uint64_t k : keys) initial[k] = 1;
  std::uint64_t bad = 0, first = 0;
  for (std::uint64_t k = 0; k < wl.keyrange; ++k) {
    std::int64_t expect = initial[k];
    for (const Worker& w : ws) expect += w.delta[k];
    const bool have = in.set->contains(in.handles[0], k);
    if ((expect != 0 && expect != 1) || have != (expect == 1)) {
      if (bad++ == 0) first = k;
    }
  }
  if (bad != 0) {
    errors.push_back("set: " + std::to_string(bad) +
                     " keys disagree with the op results (first key " +
                     std::to_string(first) + ")");
  }
}

// Queue check: each worker saw every producer's values in increasing
// sequence order, nothing was refused or found empty, and the multiset
// enqueued (prefill included) equals the multiset dequeued plus what is
// left, compared by count and by a sum of per-value hashes.
void check_queue(Instance& in, const std::vector<Worker>& ws,
                 std::vector<std::string>& errors) {
  std::uint64_t in_count = kQueueDepth, in_hash = in.prefill_hash;
  std::uint64_t out_count = 0, out_hash = 0, violations = 0, refused = 0;
  for (const Worker& w : ws) {
    in_count += w.enq_count;
    in_hash += w.enq_hash;
    out_count += w.deq_count;
    out_hash += w.deq_hash;
    violations += w.order_violations;
    refused += w.refused_enqueues;
  }
  std::array<std::int64_t, kWorkers + 1> last;
  last.fill(-1);
  std::uint64_t v = 0;
  while (in.queue->dequeue(in.handles[0], &v)) {
    ++out_count;
    out_hash += mix(v);
    note_dequeued(v, last, violations);
  }
  if (violations != 0) {
    errors.push_back("queue: " + std::to_string(violations) +
                     " values out of per-producer order");
  }
  if (refused != 0) {
    errors.push_back("queue: " + std::to_string(refused) + " enqueues refused");
  }
  if (in_count != out_count || in_hash != out_hash) {
    errors.push_back("queue: enqueued " + std::to_string(in_count) +
                     " values, dequeued or left " + std::to_string(out_count) +
                     (in_hash != out_hash ? " (multiset hash differs)" : ""));
  }
}

// ----------------------------------------------------------------- output

std::string host_json(const Options& o) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string cpus;
  int ncpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &set)) continue;
      if (ncpus++ > 0) cpus += ',';
      cpus += std::to_string(c);
    }
  }
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string kernel = "unknown";
  utsname u{};
  if (uname(&u) == 0) kernel = u.release;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"allowed_cpus\": \"%s\", \"ncpus\": %d, \"cpu_model\": \"%s\", "
                "\"tsc_ghz\": %.4f, \"clock\": \"%s\", \"kernel\": \"%s\", "
                "\"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
                "\"workers\": %d, \"allocator\": \"%s\", \"reclaimer\": \"%s\", "
                "\"ds\": \"%s\", \"bag\": %zu, \"penalty_ns\": %llu, "
                "\"warmup_s\": %.1f}",
                cpus.c_str(), ncpus, model.c_str(), emr::timing::tsc_ghz(),
                emr::timing::clock_name(), kernel.c_str(), PERFBENCH_BUILD_TYPE,
                o.w->name, static_cast<unsigned long long>(o.seed), kWorkers,
                kAllocator, o.w->reclaimer, o.w->ds, kBagSize,
                static_cast<unsigned long long>(kPenaltyNs), kWarmupS);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::vector<Metric> end_to_end(const WindowResult& r, double setup_s) {
  return {
      {"throughput_mops", r.mops(), "Mops/s"},
      {"op_p50_us", median(r.slice_p50) / 1e3, "us"},
      {"op_p999_us", median(r.slice_p999) / 1e3, "us"},
      {"op_p9999_us", median(r.slice_p9999) / 1e3, "us"},
      {"garbage_mean_mib", median(r.slice_garbage_bytes) / kMiB, "MiB"},
      {"setup_s", setup_s, "s"},
  };
}

// The ds.* op-kind metrics follow the structure: set workloads report
// insert / erase / lookup, the queue workload enqueue / dequeue and its
// empty-dequeue count.
std::vector<Metric> per_layer(const Workload& wl, const WindowResult& t,
                              const WindowResult& ref) {
  const WindowCounts& c = t.counts;
  const double ops = static_cast<double>(std::max<std::uint64_t>(c.ops, 1));
  const double wall_ns = t.seconds * 1e9 * kWorkers;
  std::vector<Metric> m = {
      {"alloc.alloc_ns_per_op", t.per_op(t.alloc_ns), "ns"},
      {"alloc.free_ns_per_op", t.per_op(t.free_ns), "ns"},
      {"alloc.free_p50_ns", t.free_hist.quantile(0.5), "ns"},
      {"alloc.free_p9999_ns", t.free_hist.quantile(0.9999), "ns"},
      {"alloc.frees_per_op", t.per_op(t.frees), "1/op"},
      {"alloc.remote_frees_per_op", t.per_op(t.remote_frees), "1/op"},
      {"alloc.flushes_per_kop", 1e3 * t.per_op(t.flushes), "1/kop"},
      {"alloc.flush_ns_per_op", t.per_op(t.flush_ns), "ns"},
      {"alloc.lock_wait_ns_per_op", t.per_op(t.lock_ns), "ns"},
      {"alloc.peak_mapped_mib", static_cast<double>(t.peak_mapped) / kMiB, "MiB"},
      {"smr.retired_per_op", t.per_op(t.retired), "1/op"},
      {"smr.epochs_per_kop", 1e3 * t.per_op(t.epochs), "1/kop"},
      {"smr.drained_per_op", t.per_op(t.drained), "1/op"},
      {"smr.stashed_per_op", t.per_op(t.stashed), "1/op"},
      {"smr.flushed_per_op", t.per_op(t.flushed), "1/op"},
      {"smr.garbage_max_mib", t.garbage_max_bytes / kMiB, "MiB"},
  };
  const int first_kind = wl.queue ? kEnqueue : kInsert;
  const int end_kind = wl.queue ? kNumKinds : kEnqueue;
  for (int k = first_kind; k < end_kind; ++k) {
    const std::string base = std::string("ds.") + kKindNames[k];
    m.push_back({base + "_p50_ns", c.kind[k].quantile(0.5), "ns"});
    m.push_back({base + "_p999_ns", c.kind[k].quantile(0.999), "ns"});
  }
  const double self = (static_cast<double>(c.span_ns) -
                       static_cast<double>(t.alloc_ns + t.free_ns)) / ops;
  m.push_back({"ds.self_ns_per_op", self, "ns"});
  m.push_back({"ds.update_hit_ratio",
               c.updates ? static_cast<double>(c.update_hits) / static_cast<double>(c.updates) : 0.0,
               "ratio"});
  if (wl.queue) {
    m.push_back({"ds.empty_dequeues_per_kop", 1e3 * t.per_op(c.empty_dequeues), "1/kop"});
  }
  m.push_back({"sched.descheduled_ns_per_op", t.per_op(c.run_delay_ns), "ns"});
  m.push_back({"sched.involuntary_switches_per_s",
               static_cast<double>(c.nivcsw) / t.seconds, "1/s"});
  m.push_back({"trace.throughput_mops", t.mops(), "Mops/s"});
  m.push_back({"trace.overhead_pct", 100.0 * (1.0 - t.mops() / ref.mops()), "%"});
  m.push_back({"trace.attributed_pct", 100.0 * static_cast<double>(c.span_ns) / wall_ns, "%"});
  return m;
}

void write_trace_file(const std::string& path, const Options& o,
                      const std::vector<Worker>& ws) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"workers\": [", o.w->name,
               static_cast<unsigned long long>(o.seed));
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const WindowCounts& c = ws[i].win;
    std::fprintf(f, "%s\n {\"worker\": %zu, \"ops\": %llu, \"span_ns\": %llu, "
                 "\"run_delay_ns\": %llu, \"nivcsw\": %llu, \"kinds\": {",
                 i ? "," : "", i, static_cast<unsigned long long>(c.ops),
                 static_cast<unsigned long long>(c.span_ns),
                 static_cast<unsigned long long>(c.run_delay_ns),
                 static_cast<unsigned long long>(c.nivcsw));
    bool first = true;
    for (int k = 0; k < kNumKinds; ++k) {
      if (c.kind_ops[k] == 0) continue;
      std::fprintf(f, "%s\"%s\": {\"n\": %llu, \"p50_ns\": %s, \"p999_ns\": %s}",
                   first ? "" : ", ", kKindNames[k],
                   static_cast<unsigned long long>(c.kind_ops[k]),
                   num(c.kind[k].quantile(0.5)).c_str(),
                   num(c.kind[k].quantile(0.999)).c_str());
      first = false;
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int run(const Options& o) {
  emr::timing::calibrate_clock();
  const Workload& wl = *o.w;
  std::vector<std::string> errors;

  // Set-up, kSetups times: each builds the layers, registers the
  // workers and prefills. All but the last are torn down (and their
  // ledgers checked) outside the clock; so is making the inputs.
  const std::vector<std::uint64_t> keys =
      wl.queue ? std::vector<std::uint64_t>{} : prefill_keys(wl, o.seed);
  std::vector<double> setups;
  std::unique_ptr<Instance> in;
  for (int i = 0; i < kSetups; ++i) {
    if (in) {
      teardown(*in, errors);
      in.reset();
    }
    const std::uint64_t t0 = now_ns();
    in = build(wl, keys);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::sort(setups.begin(), setups.end());
  const double setup_s = setups[setups.size() / 2];

  Runner runner(wl, *in, o.seed);
  runner.start();
  runner.window(kWarmup, kWarmupS);
  WindowResult measured, traced;
  if (o.trace) {
    // A shorter untraced reference window first, so the traced run
    // states its own overhead.
    measured = runner.window(kMeasure, o.seconds / 4);
    traced = runner.window(kTrace, o.seconds);
  } else {
    measured = runner.window(kMeasure, o.seconds);
  }
  runner.stop();

  std::vector<Worker>& ws = runner.workers();
  for (const Worker& w : ws) {
    if (!w.first_error.empty()) errors.push_back("op threw: " + w.first_error);
  }
  if (wl.queue) {
    check_queue(*in, ws, errors);
  } else {
    check_set(wl, *in, keys, ws, errors);
  }
  teardown(*in, errors);
  if (o.trace && !o.trace_out.empty()) write_trace_file(o.trace_out, o, ws);

  const WindowResult& shown = o.trace ? traced : measured;
  const std::vector<Metric> metrics =
      o.trace ? per_layer(wl, traced, measured) : end_to_end(measured, setup_s);
  std::uint64_t min_slice = UINT64_MAX;
  for (std::uint64_t n : shown.counts.slice_ops) min_slice = std::min(min_slice, n);
  std::printf("{\"host\": %s, \"window_s\": %s, \"slices\": %d, "
              "\"latency_samples\": %llu, \"min_slice_samples\": %llu, "
              "\"min_slice_samples_beyond_p9999\": %llu, "
              "\"garbage_samples\": %llu, \"setups\": %d}\n",
              host_json(o).c_str(), num(shown.seconds).c_str(), kSlices,
              static_cast<unsigned long long>(shown.lat.count()),
              static_cast<unsigned long long>(min_slice),
              static_cast<unsigned long long>(min_slice / 10000),
              static_cast<unsigned long long>(shown.garbage_samples), kSetups);
  for (const Metric& m : metrics) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": " + std::string(errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(shown.counts.ops) +
                     ", \"failed\": " + std::to_string(shown.counts.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}

// Online plan executor (§4.5).
//
// Interprets a runtime::Plan for one node with *real* threads: per-GPU
// demand arrays, a resizable loading pool whose size follows the plan's
// per-iteration thread assignment, a preprocessing pool, plan-driven cache
// maintenance (prefetches and evictions), and an optional distribution
// manager for remote fetches. Payloads are materialized and verified
// end-to-end, so the executor proves the enforcement machinery — per-GPU
// thread shares, pool resizing, distributed fetches, plan bookkeeping —
// delivers every sample exactly once and in time.
//
// Hot-path concurrency (DESIGN.md §8): the resident-sample set is striped
// (no global store mutex), delivery dedup is worker-local and merged once
// per drain (no per-request lock), drain workers claim contiguous chunks of
// each GPU's pre-filled demand array through an atomic cursor, remote
// misses are routed to the directory-recorded holder in O(1), and plan
// prefetches run batched on the loading pool through the iteration
// boundary, joined before the next iteration classifies its demand.
//
// Stage timings are *accounted* in virtual time (bytes / tier rate) rather
// than slept, so executor tests run in milliseconds; the performance story
// lives in the pipeline simulator.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/directory.hpp"
#include "cache/kv_store.hpp"
#include "common/striped_set.hpp"
#include "common/thread_pool.hpp"
#include "common/tier_rates.hpp"
#include "common/types.hpp"
#include "core/feedback_balancer.hpp"
#include "core/load_balance_config.hpp"
#include "data/dataset.hpp"
#include "data/sampler.hpp"
#include "metrics/throughput_window.hpp"
#include "runtime/distribution_manager.hpp"
#include "runtime/plan.hpp"
#include "sim/capacity_profile.hpp"

namespace lobster::runtime {

class IterationWatchdog;

/// Tier a request is served from, classified at enqueue against the
/// resident set (§4.2: local cache, remote peer/KV tier, or the PFS).
enum class FetchTier : std::uint8_t { kLocal, kRemote, kPfs };

/// One sample to load: a demand request of one GPU's minibatch or a plan
/// prefetch.
struct LoadRequest {
  SampleId sample = kInvalidSample;
  Bytes bytes = 0;
  FetchTier tier = FetchTier::kLocal;
  IterId iter = 0;
};

/// Called at the top of every iteration (before enqueue) with the global
/// iteration id, the previous iteration's per-GPU measurements (empty on the
/// first call), and a mutable RebalancePlan. Fault harnesses hang
/// FaultPlan::on_iteration here so "kill node 2 at iteration 5" fires at a
/// deterministic point; balancer harnesses feed the feedback through a
/// FeedbackBalancer (or RebalanceBarrier) and fill the plan — an active plan
/// whose quotas cover the cluster re-splits this iteration's global batch
/// and overrides the static per-queue thread counts.
using IterationHook =
    std::function<void(IterId, const core::IterationFeedback&, core::RebalancePlan&)>;

struct ExecutorConfig {
  NodeId node = 0;
  /// Shared load-balance knob block (pool cap, thread budget — the same
  /// fields Algorithm 1 and the feedback balancer read). The pool
  /// cap stops oversubscribing physical cores; tests pin it explicitly to
  /// force real multi-threaded drains regardless of the host.
  core::LoadBalanceConfig balance;
  /// Virtual fetch rates (bytes/s) per tier and preprocessing rate.
  TierRates rates = TierRates::defaults();
  Seconds t_train = 13e-3;
  /// Verify each fetched payload (integrity check; small CPU cost).
  bool verify_payloads = true;
  /// Iteration-indexed capacity schedule for THIS node (scale_at(iter)):
  /// thermal throttling, co-tenant interference, a degraded NIC. Scales the
  /// virtual-time tier and preprocessing rates, so a throttled node's
  /// measured per-GPU throughput drops exactly as a slow node's would —
  /// the signal the feedback balancer closes the loop on. Empty = full speed.
  sim::CapacityProfile capacity;
  IterationHook iteration_hook;
  /// Checkpoint hook (DESIGN.md §13), polled at every iteration boundary —
  /// after iteration h's delivery fully landed, before h+1 touches the tier
  /// (the crash-consistency point: there is never a half-delivered
  /// iteration to reconcile). Return true to report that a checkpoint was
  /// cut. The executor brackets the call with a watchdog pause, so a slow
  /// checkpoint (file I/O) cannot fire a spurious stall or skew the
  /// trailing-median deadline.
  std::function<bool(IterId boundary)> checkpoint_hook;
};

/// Multi-tenant job context (DESIGN.md §10). When a job context is set,
/// every shared-tier operation — KV gets/puts/erases and directory routing
/// — addresses keys namespaced to the job's dataset, so several executors
/// serving different jobs can share one KvStore/CacheDirectory without key
/// collisions (and executors of jobs over the SAME dataset share entries on
/// purpose). `metric_prefix` slices the run's registry aggregates by tenant
/// (convention: "cluster.job/<name>/", see cluster::job_metric_prefix).
struct JobContext {
  std::uint32_t ns = 0;       ///< cache::NamespaceId; 0 = single-job default
  std::string metric_prefix;  ///< empty = no per-job metrics
};

struct IterationExecution {
  IterId iter = 0;
  std::uint32_t load_pool_size = 0;     ///< enforced loading threads
  std::uint32_t preproc_pool_size = 0;  ///< enforced preprocessing threads
  std::uint32_t demand_requests = 0;
  std::uint32_t prefetch_requests = 0;
  /// Always 0: per-GPU demand arrays have no bound to overflow. Kept only
  /// because the perfbench executor workloads read it.
  std::uint32_t spilled_requests = 0;
  std::uint32_t local_hits = 0;
  std::uint32_t remote_fetches = 0;
  std::uint32_t pfs_fetches = 0;
  /// Requests that hit a dead/unreachable holder and were re-routed (to a
  /// surviving holder or the PFS) instead of failing.
  std::uint32_t degraded_fetches = 0;
  Seconds virtual_load = 0.0;     ///< modeled max per-GPU loading time
  Seconds virtual_preproc = 0.0;  ///< modeled max per-GPU preprocessing time
  Seconds virtual_duration = 0.0; ///< max(t_train, load + preproc)
  double capacity_scale = 1.0;    ///< config.capacity scale in force this iteration
  bool rebalanced = false;        ///< an active RebalancePlan drove this iteration
  /// Measured wall-clock duration of the iteration body (iteration hook
  /// through cache maintenance, prefetch join included). Real elapsed time —
  /// the denominator the causal span analysis compares its degraded-fetch
  /// overhead attribution against.
  Seconds wall_s = 0.0;
};

struct ExecutionReport {
  std::vector<IterationExecution> iterations;
  std::uint64_t samples_delivered = 0;
  /// Bad payloads *delivered* — with quarantine in place this must be 0;
  /// intercepted ones land in quarantined_payloads instead.
  std::uint64_t payload_failures = 0;
  std::uint64_t duplicate_deliveries = 0;
  std::uint64_t lost_deliveries = 0;    ///< enqueued but never drained
  std::uint64_t degraded_fetches = 0;   ///< re-routed around a dead peer
  /// Payloads that failed verification and were intercepted (KV entry
  /// evicted / corrupt reply re-routed / re-materialized from the PFS).
  /// Recoverable by design, so not part of clean().
  std::uint64_t quarantined_payloads = 0;
  /// Checkpoints the checkpoint_hook reported cut at iteration boundaries.
  std::uint64_t checkpoints = 0;
  Seconds virtual_total = 0.0;

  bool clean() const noexcept {
    return payload_failures == 0 && duplicate_deliveries == 0 && lost_deliveries == 0;
  }
};

class PlanExecutor {
 public:
  /// `manager` (optional) serves remote fetches; without it remote-planned
  /// samples fall back to the PFS path.
  PlanExecutor(ExecutorConfig config, const data::SampleCatalog& catalog,
               const data::EpochSampler& sampler, const Plan& plan,
               DistributionManager* manager = nullptr);

  /// Wires in the remote-fetch path (may be set after construction, before
  /// run(), to break the executor <-> manager construction cycle).
  void set_manager(DistributionManager* manager) noexcept { manager_ = manager; }

  /// Alternative remote tier (§2): a cluster KV store keyed by sample id.
  /// When set, remote fetches query the store first (before the manager),
  /// and every fetched sample is published to it.
  void set_kv_store(cache::KvStore* store) noexcept { kv_store_ = store; }

  /// Residency directory for remote-fetch routing (§4.4: deterministic
  /// prefetching makes residency a global property). When set, a remote miss
  /// asks the directory-recorded holder directly in O(1). Without a
  /// directory there is no peer routing at all — remote-planned samples are
  /// served by the KV tier (if wired) or fall to the PFS. (The historical
  /// fallback of polling every peer in rank order is gone: it hid O(world)
  /// traffic behind a default, and every production path wires a directory.)
  /// The residency *map* must not be mutated while run() is in flight; the
  /// executor itself only flips the directory's atomic down-mask
  /// (mark_node_down) when a holder stops answering, which is safe under
  /// concurrent queries.
  void set_directory(cache::CacheDirectory* directory) noexcept { directory_ = directory; }

  /// Tags this executor with a tenant (DESIGN.md §10): shared-tier keys are
  /// namespaced, and end-of-run aggregates are additionally published under
  /// the job's metric prefix. Must be set before run().
  void set_job_context(JobContext context) { job_ = std::move(context); }
  const JobContext& job_context() const noexcept { return job_; }

  /// Iteration watchdog (DESIGN.md §9): when set, run() brackets every
  /// iteration with begin_iteration/end_iteration so the watchdog's
  /// deadline thread can flag iterations that exceed k× the trailing
  /// median wall-clock duration.
  void set_watchdog(IterationWatchdog* watchdog) noexcept { watchdog_ = watchdog; }

  /// Executes every iteration of the plan for this node.
  ExecutionReport run();

  /// Residency set after the run (for invariant checks in tests).
  std::unordered_set<SampleId> resident_samples() const;

  /// Previous-iteration measurements handed to the iteration hook (exposed
  /// for tests; valid during/after run()).
  const core::IterationFeedback& last_feedback() const noexcept { return feedback_; }

  /// True if `sample` is currently resident (thread-safe; used by the
  /// distribution manager's has_sample callback).
  bool has_sample(SampleId sample) const;

 private:
  struct GpuAccounting {
    std::uint64_t local_bytes = 0;
    std::uint64_t remote_bytes = 0;
    std::uint64_t pfs_bytes = 0;
    std::uint32_t local_hits = 0;
    std::uint32_t remote_fetches = 0;
    std::uint32_t pfs_fetches = 0;
    std::uint32_t degraded_fetches = 0;

    void merge(const GpuAccounting& other) noexcept {
      local_bytes += other.local_bytes;
      remote_bytes += other.remote_bytes;
      pfs_bytes += other.pfs_bytes;
      local_hits += other.local_hits;
      remote_fetches += other.remote_fetches;
      pfs_fetches += other.pfs_fetches;
      degraded_fetches += other.degraded_fetches;
    }
  };

  void execute_request(const LoadRequest& request, GpuAccounting& accounting);

  /// Batched miss handling for one drained batch or one chunk of plan
  /// prefetches (DESIGN.md §8): probes the KV tier per sample, then
  /// coalesces remote misses into ONE multi-get envelope per holder
  /// (DistributionManager::fetch_remote_many) and batch-materializes cold
  /// misses from the PFS into arena-backed buffers. Per-sample failures fall
  /// back to execute_request, so retry / detour / quarantine routing and
  /// kFetch span trees are unchanged for every degraded sample.
  void execute_batch(std::span<const LoadRequest> requests, GpuAccounting& accounting);

  ExecutorConfig config_;
  const data::SampleCatalog& catalog_;
  const data::EpochSampler& sampler_;
  const Plan& plan_;
  DistributionManager* manager_;
  cache::KvStore* kv_store_ = nullptr;
  cache::CacheDirectory* directory_ = nullptr;
  IterationWatchdog* watchdog_ = nullptr;
  JobContext job_;

  /// Resident-sample set, striped so loading threads probing or inserting
  /// different samples never contend (the old single store mutex serialized
  /// every enqueue probe and every fetch).
  StripedSet<SampleId> store_{64};

  /// Per-GPU throughput history (metrics::ThroughputWindow — the same
  /// derivation the FairnessTracker and balancer use), published under
  /// executor.gpu/<flat rank>/throughput. Touched only by the run() thread.
  std::vector<metrics::ThroughputWindow> throughput_;
  core::IterationFeedback feedback_;

  std::atomic<std::uint64_t> payload_failures_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace lobster::runtime

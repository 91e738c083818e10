// Scheduler framework base class.
//
// Implements the machinery every scheduler in the paper shares:
//   * job arrival + short/long classification (estimated mean task duration
//     against the trace cutoff),
//   * the distributed plane: constraint-aware probe placement with late
//     binding (a probe reaching a worker's slot fetches the job's next
//     unplaced task over one RTT, or resolves to a no-op),
//   * the centralized plane: power-of-d least-loaded early binding,
//   * the worker loop with pluggable queue discipline: every machine keeps
//     one run list (a single-slot worker has room for one run, a packed
//     machine for as many as its residual capacity admits),
//   * per-worker P-K wait estimators and the heartbeat tick,
//   * control-plane message delivery through a net::NetworkFabric + Rpc
//     pair (latency models, chaos injection, timeout/retry), owned here so
//     every scheduler shares one transit-time model,
//   * outcome accounting into a metrics::SimReport.
//
// Subclasses (Sparrow, Hawk, Eagle, Yacc-D, Phoenix) override the protected
// hooks; see each header for which design axis of Table I it changes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <array>
#include <map>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/membership.h"
#include "federation/plane.h"
#include "metrics/report.h"
#include "net/fabric.h"
#include "net/rpc.h"
#include "obs/event.h"
#include "packing/vector.h"
#include "sched/types.h"
#include "sim/engine.h"
#include "tenancy/preemption.h"
#include "tenancy/tenant.h"
#include "trace/trace.h"
#include "util/arena.h"
#include "util/rng.h"
#include "workflow/dag.h"

namespace phoenix::obs {
class InvariantAuditor;
struct WorkerHints;
}  // namespace phoenix::obs

namespace phoenix::power {
class PowerManager;
}  // namespace phoenix::power

namespace phoenix::sched {

class SchedulerBase {
 public:
  SchedulerBase(sim::Engine& engine, const cluster::Cluster& cluster,
                const SchedulerConfig& config);
  virtual ~SchedulerBase() = default;

  SchedulerBase(const SchedulerBase&) = delete;
  SchedulerBase& operator=(const SchedulerBase&) = delete;

  /// Human-readable scheduler name ("phoenix", "eagle-c", ...).
  virtual std::string name() const = 0;

  /// Registers every job arrival of `trace` with the engine and starts the
  /// heartbeat. Call once, before engine.Run().
  void SubmitTrace(const trace::Trace& trace);

  /// Builds the report. Call after engine.Run() has drained. Aborts if any
  /// job is incomplete (task-conservation invariant).
  metrics::SimReport BuildReport() const;

  const SchedulerConfig& config() const { return config_; }
  const cluster::Cluster& cluster() const { return cluster_; }

  /// True when every submitted job has completed.
  bool AllJobsDone() const { return jobs_done_ == jobs_.size(); }

  // ---- Sharded control plane ---------------------------------------------

  /// Partitions the control plane into cfg.shards territories over this
  /// scheduler's fabric. Call before SubmitTrace. With cfg.shards <= 1 this
  /// is a no-op and every path stays byte-identical to the unsharded
  /// scheduler; otherwise each shard heartbeats only its own territory and
  /// peers exchange gossiped digests (see federation/plane.h).
  void EnableFederation(const federation::FederationConfig& cfg);
  federation::FederationPlane* federation() { return federation_.get(); }
  const federation::FederationPlane* federation() const {
    return federation_.get();
  }

  // ---- Elastic membership ------------------------------------------------

  /// Attaches a membership view over this scheduler's cluster. Call before
  /// SubmitTrace (and keep the view alive for the run). With a view
  /// attached, every sampling/eligibility path restricts itself to active
  /// machines; without one, behaviour is byte-identical to the static
  /// fleet. Phoenix overrides to forward the view to its CRV monitor and
  /// admission controller.
  virtual void SetMembership(cluster::MembershipView* membership);
  const cluster::MembershipView* membership() const { return membership_; }

  /// Read access for the elasticity controller's policies (load signals,
  /// wasted-warm-up detection). The full fleet is the machine universe.
  const WorkerState& worker_state(cluster::MachineId id) const {
    return workers_[id];
  }
  std::size_t num_machines() const { return workers_.size(); }

  // ---- Dense heartbeat hints (DESIGN §4b2) --------------------------------
  //
  // Per-machine facts the heartbeat-cadence fleet passes read instead of the
  // worker records. RefreshHints is their one writer and runs after every
  // change of busy, the queue, the run list, steal_inflight, failed or the
  // lifecycle state, so they are exact whenever control is outside
  // SchedulerBase; the auditor re-derives them at each audited heartbeat.
  // NoteResidual moves the live mean-copies sum with a live machine's
  // residual.

  /// Machines that are up and bindable: not failed, and active (or no view).
  const util::Bitset& live() const { return live_; }
  std::size_t live_count() const { return live_count_; }
  /// Whole mean-demand copies summed over the live machines (packing only).
  std::uint64_t live_mean_copies() const { return live_copies_; }
  /// The machine holds work (WorkerState::HoldsWork).
  bool Occupied(cluster::MachineId id) const { return occupied_[id] != 0; }
  /// Hawk's heartbeat steals for this machine: nothing queued, no fetch in
  /// flight and room for another run (a single-slot worker is full while
  /// it runs; a packed machine's fit is checked when the stolen entry
  /// lands), no steal in flight, and bindable. Failed machines pass too:
  /// TryStealFor never checks `failed`, and fixing that moves schedules.
  bool StealGate(cluster::MachineId id) const { return steal_gate_[id] != 0; }
  /// Worker holds long work, queued or executing — Eagle's SSS bit. Served
  /// from a dense byte array so rejection-sampling probe loops touch one
  /// byte per candidate instead of the worker record plus the job table.
  bool LongBusy(cluster::MachineId id) const { return long_busy_[id] != 0; }
  /// Short probes queued fleet-wide: the sum of the per-worker counts
  /// TryStealFor's victim scan tests.
  std::uint64_t short_probes_queued() const { return short_probes_queued_; }
  /// The run's counters, which BuildReport copies into the report. The
  /// elasticity controller counts its own decisions into them too.
  metrics::SchedulerCounters& counters() { return counters_; }

  // Lifecycle actuators, driven by the elasticity controller. All require
  // an attached membership view and emit the corresponding obs events.

  /// parked/retired -> provisioning. The caller owns the warm-up timer that
  /// later calls CommissionMachine; `warmup_delay` is recorded for the
  /// warm-up accounting and the event payload.
  void ProvisionMachine(cluster::MachineId id, double warmup_delay);

  /// provisioning -> active: the machine joins the bindable fleet with
  /// fresh load signals and immediately looks for work.
  void CommissionMachine(cluster::MachineId id);

  enum class DrainReason : std::uint8_t { kScaleDown, kReclamation };

  /// active -> draining: cancels any fetch holding the control slot (it
  /// would bind new work here), bounces queued probes elsewhere, and keeps
  /// runs and queued bound tasks, which may still start and finish during
  /// the grace period.
  void DrainMachine(cluster::MachineId id,
                    DrainReason reason = DrainReason::kScaleDown);

  /// draining -> retired. Graceful (`force` false) succeeds only on a
  /// machine holding no work (returns false otherwise); forced evicts the
  /// runs and queue, redispatching everything elsewhere.
  bool RetireMachine(cluster::MachineId id, bool force);

  // ---- Power management ---------------------------------------------------

  /// Attaches the power manager (requires a membership view: parked is a
  /// lifecycle state). Call after SetMembership and before SubmitTrace.
  /// With no manager attached every power branch is unreachable and the
  /// run is byte-identical to a build without src/power. Phoenix overrides
  /// to enable wake-discounted parked supply in its CRV monitor.
  virtual void SetPower(power::PowerManager* power);
  power::PowerManager* power() { return power_; }
  const power::PowerManager* power() const { return power_; }

  /// active/draining -> parked deep sleep. Refuses (returns false) when the
  /// machine holds any work (a fetch, runs, or queued entries), is failed, or
  /// is not active/draining — so the park policy and the elastic
  /// park-instead-of-retire path share one safety check. The parked
  /// worker's estimator advertises the wake-cost penalty as its E[W].
  bool ParkMachine(cluster::MachineId id);

  /// DVFS actuation: retune `id` to P-state `p`. Returns false if the
  /// machine was already there. Emits kPowerDvfs + kPowerState.
  bool SetMachinePState(cluster::MachineId id, unsigned p);

  /// parked -> provisioning with the machine's S3 wake latency, plus a
  /// timer that commissions it when the wake completes (unless something
  /// else moved the machine meanwhile). The one wake path shared by the
  /// power controller, the elastic lease top-up, and the dispatch-time
  /// demand fallback below.
  void WakeParkedMachine(cluster::MachineId id);

  /// Demand-driven wake: called when a placement finds no bindable machine
  /// satisfying `cs`. Returns a satisfying machine that is already waking
  /// (provisioning), or wakes the lowest-id parked satisfier and returns
  /// it — deliveries bounce until the wake completes, so nothing ever
  /// binds to a sleeping machine. Returns kInvalidMachine when no power
  /// manager is attached or no parked satisfier exists (the pre-power
  /// contract: such pools cannot empty).
  cluster::MachineId WakeSatisfierFallback(const cluster::ConstraintSet& cs);

  // ---- Observability -----------------------------------------------------

  /// Attaches an event sink. Call before SubmitTrace. The scheduler does
  /// not own the sink; it must outlive the run. With no sinks attached the
  /// emit path is a single empty() branch.
  void AttachSink(obs::EventSink* sink);

  /// Attaches the auditor both as an event sink and for the structural
  /// worker checks run at every heartbeat and by FinalAudit().
  void AttachAuditor(obs::InvariantAuditor* auditor);

  /// End-of-run structural audit + the auditor's conservation checks.
  /// Call after engine.Run() drains (no-op without an attached auditor).
  void FinalAudit();

  // ---- Deterministic fault injection -------------------------------------

  /// Fails machine `id` immediately (same path as stochastic injection:
  /// cancels the in-flight fetch, kills the runs, drains the queue).
  /// Unlike stochastic failures no automatic repair is scheduled — pair
  /// with InjectRepair. No-op if the machine is already down.
  void InjectFailure(cluster::MachineId id);

  /// Repairs machine `id` immediately. No-op if the machine is up.
  void InjectRepair(cluster::MachineId id);

 protected:
  // ---- Hooks -------------------------------------------------------------

  /// Called when a job arrives, before placement. Default: no-op.
  /// Phoenix overrides this for proactive admission control.
  virtual void AdmitJob(JobRuntime& job);

  /// True if the scheduler routes this job through the distributed
  /// (probe-based) plane. Default: short jobs. Sparrow: everything.
  virtual bool UsesDistributedPlane(const JobRuntime& job) const;

  /// Distributed-plane placement: choose the workers to probe for `job`
  /// (default: probe_ratio * tasks samples, uniform over the satisfying
  /// pool). Eagle filters long-occupied workers (SSS); Phoenix prefers low
  /// estimated wait.
  virtual std::vector<cluster::MachineId> ChooseProbeTargets(
      const JobRuntime& job);

  /// Centralized-plane candidate pool for one long task (default:
  /// power-of-d sample of the satisfying pool; Hawk excludes its short-only
  /// partition).
  virtual std::vector<cluster::MachineId> ChooseLongCandidates(
      const JobRuntime& job);

  /// Queue discipline: index of the entry to run next. Default 0 (FIFO).
  /// The framework charges a bypass to every entry in front of the
  /// selection. Implementations must respect the slack threshold themselves
  /// (helper: IndexRespectingSlack).
  virtual std::size_t SelectNextIndex(const WorkerState& worker);

  /// Called when a worker goes idle with an empty queue. Hawk/Eagle steal
  /// here. Default: no-op.
  virtual void OnWorkerIdle(WorkerState& worker);

  /// Heartbeat tick (every config.heartbeat_interval) over the worker range
  /// [lo, hi) — the whole fleet unsharded, one shard's territory under
  /// federation (nothing on a shard's tick may loop over the full fleet).
  /// Default: no-op. Phoenix refreshes the CRV table and wait estimates.
  virtual void OnHeartbeat(cluster::MachineId lo, cluster::MachineId hi);

  /// Sticky batch probing: after finishing a task of a job with unplaced
  /// tasks, fetch the next task of the same job directly (Eagle). Default
  /// off. Phoenix disables it during CRV-congested periods.
  virtual bool UseStickyBatchProbing(const JobRuntime& job) const;

  /// Entry admitted into a worker queue (after transit). Phoenix maintains
  /// CRV demand counters here. Default: no-op.
  virtual void OnEntryEnqueued(const WorkerState& worker,
                               const QueueEntry& entry);
  /// Entry removed from a worker queue (selected, stolen or migrated).
  virtual void OnEntryDequeued(const WorkerState& worker,
                               const QueueEntry& entry);

  // ---- Machinery available to subclasses ---------------------------------

  /// Applies slack: if any entry has been bypassed slack_threshold times,
  /// the oldest such entry must run next; otherwise returns `preferred`.
  std::size_t IndexRespectingSlack(const WorkerState& worker,
                                   std::size_t preferred) const;

  /// Shortest-estimate entry (first on ties), ignoring slack: the SRPT pick
  /// Eagle, Phoenix and Yacc-D reorder their queues by.
  std::size_t SrptIndex(const WorkerState& worker) const;

  /// Sends `entry` toward worker `target` over the fabric with nominal
  /// transit `delay` seconds (`from` is the sending endpoint — the
  /// controller for placements, a worker for steals/migrations). Delivery
  /// is reliable: timeouts retry, and exhausted retries re-dispatch the
  /// entry elsewhere, so chaos injection cannot strand work.
  void SendEntry(cluster::MachineId target, QueueEntry entry, double delay,
                 cluster::MachineId from = net::kControllerNode);

  /// Removes queue[index] from `worker`, charging bypasses to entries in
  /// front of it (use for execution pops). Returns the entry.
  QueueEntry PopQueueAt(WorkerState& worker, std::size_t index);

  /// Removes queue[index] without charging bypasses (use for migrations and
  /// steals — the entries in front are not being overtaken by execution).
  QueueEntry RemoveQueueAt(WorkerState& worker, std::size_t index);

  /// Starts queued entries while the worker has room: the discipline's
  /// pick first, then (packed backfill) the first entry that fits. A probe
  /// takes the control slot for its fetch and ends the pass.
  void TryStartNext(WorkerState& worker);

  /// Attempts one Hawk-style steal for an idle worker that wants work (its
  /// queue empty, no fetch in flight, room for a run): unless its steal
  /// gate is closed, contacts steal_candidates random workers and moves
  /// over the first short probe `thief` satisfies. Returns true if a steal
  /// is in flight.
  bool TryStealFor(cluster::MachineId thief);

  /// Applies the job's rack placement preference to a candidate list:
  /// spread drops racks the job already uses, colocate keeps the anchor
  /// rack — each only if at least one candidate survives (preferences are
  /// soft; an empty filter falls back to the unfiltered list).
  void FilterByPlacement(const JobRuntime& job,
                         std::vector<cluster::MachineId>& candidates) const;

  /// Records that a task of `job` was committed to `rack`, charging
  /// spread-violation / colocate-miss counters as appropriate.
  void NoteRackCommitment(JobRuntime& job, cluster::RackId rack);

  /// Next task index to hand out: failure replays first, then fresh tasks.
  std::uint32_t TakeNextTaskIndex(JobRuntime& job);

  /// Drops the job's scarcest-pool soft constraint (the same victim rule as
  /// the forced-relaxation loop), charging the duration penalty and the
  /// relaxation counters. Returns false when no soft constraint remains.
  /// Used by the forced-relaxation loop and by tenant admission decisions
  /// that trade a constraint for admission.
  bool RelaxOneSoftConstraint(JobRuntime& job);

  // ---- Membership-aware eligibility --------------------------------------
  //
  // Every sampling/counting path the schedulers use goes through these.
  // Without a membership view they delegate straight to the cluster —
  // the exact pre-elastic code path, so static-fleet runs stay
  // byte-identical. With a view they operate on the eligible (active)
  // sub-pool, which is how "no new bindings to draining machines" and
  // "probe/steal target sets track membership" are enforced in one place.

  /// New work may be bound to `id` (active, or no view attached).
  bool Bindable(cluster::MachineId id) const {
    return membership_ == nullptr || membership_->Bindable(id);
  }
  /// Machines currently eligible for new bindings under `cs`.
  const util::IndexedBitset& EligiblePool(
      const cluster::ConstraintSet& cs) const {
    return membership_ == nullptr ? cluster_.Satisfying(cs)
                                  : membership_->EligiblePool(cs);
  }
  /// The eligible pool as an ascending id list, memoized alongside it. The
  /// view drops its lists on every membership change, so never hold one
  /// across a wake, park, drain or commission.
  const std::vector<std::uint32_t>& EligibleIds(
      const cluster::ConstraintSet& cs) const {
    return membership_ == nullptr ? cluster_.SatisfyingIds(cs)
                                  : membership_->EligibleIds(cs);
  }
  /// Pool size admission control must validate against. Under elasticity
  /// this is the guaranteed base fleet (which never drains), so an admitted
  /// job can never be stranded by later membership churn.
  std::size_t CountAdmissible(const cluster::ConstraintSet& cs) const {
    return membership_ == nullptr ? cluster_.CountSatisfying(cs)
                                  : membership_->CountAdmissible(cs);
  }
  std::size_t CountAdmissible(const cluster::Constraint& c) const {
    return membership_ == nullptr ? cluster_.Satisfying(c).Count()
                                  : membership_->CountAdmissible(c);
  }
  cluster::MachineId SampleEligible(const cluster::ConstraintSet& cs) {
    const cluster::MachineId m =
        membership_ == nullptr ? cluster_.SampleSatisfying(cs, rng_)
                               : membership_->SampleEligible(cs, rng_);
    return m != cluster::kInvalidMachine ? m : WakeSatisfierFallback(cs);
  }
  std::vector<cluster::MachineId> SampleEligible(
      const cluster::ConstraintSet& cs, std::size_t k) {
    std::vector<cluster::MachineId> v =
        membership_ == nullptr ? cluster_.SampleSatisfying(cs, k, rng_)
                               : membership_->SampleEligible(cs, k, rng_);
    if (v.empty() && k > 0) {
      const cluster::MachineId m = WakeSatisfierFallback(cs);
      if (m != cluster::kInvalidMachine) v.push_back(m);
    }
    return v;
  }
  std::vector<cluster::MachineId> SampleDistinctEligible(
      const cluster::ConstraintSet& cs, std::size_t k) {
    std::vector<cluster::MachineId> v =
        membership_ == nullptr
            ? cluster_.SampleDistinctSatisfying(cs, k, rng_)
            : membership_->SampleDistinctEligible(cs, k, rng_);
    if (v.empty() && k > 0) {
      const cluster::MachineId m = WakeSatisfierFallback(cs);
      if (m != cluster::kInvalidMachine) v.push_back(m);
    }
    return v;
  }

  JobRuntime& runtime(trace::JobId id) { return jobs_[id]; }
  const JobRuntime& runtime(trace::JobId id) const { return jobs_[id]; }
  WorkerState& worker(cluster::MachineId id) { return workers_[id]; }

  sim::Engine& engine() { return engine_; }
  /// The control-plane message fabric (chaos injection, partition control).
  net::NetworkFabric& fabric() { return fabric_; }
  /// Nominal one-way control-plane transit time — the fabric-owned
  /// parameter every scheduler shares (no per-scheduler delay constants).
  double one_way() const { return config_.net.one_way; }
  util::Rng& rng() { return rng_; }
  const metrics::SchedulerCounters& counters_view() const { return counters_; }

  /// Estimated one-task duration the scheduler knows for a job.
  double EstimatedTaskDuration(const JobRuntime& job) const {
    return job.spec->mean_task_duration();
  }

  /// True when at least one event sink is attached (tracing enabled).
  bool tracing() const { return !sinks_.empty(); }

  // ---- Packing (all unreachable when packing_on_ is false) ----------------

  /// Multi-resource packing is enabled for this run.
  bool packing_on() const { return packing_on_; }

  /// Fleet residual-capacity fraction in cores, weighted by the per-machine
  /// effective-server counts — Phoenix scales its CRV supply by this so the
  /// table prices "how many more tasks the fleet can absorb", not "how many
  /// machines exist". 1.0 when packing is off (no supply rescale).
  double PackedSupplyScale() const;

  /// Emits an event to the attached sinks. The no-sink case is a single
  /// branch, so instrumented code paths cost nothing in normal runs.
  void Emit(obs::EventType type, std::uint32_t job = obs::kNoId,
            std::uint32_t machine = obs::kNoId,
            std::uint32_t task = obs::kNoId, double value = 0) {
    if (sinks_.empty()) return;
    EmitToSinks(type, job, machine, task, value);
  }

 private:
  void EmitToSinks(obs::EventType type, std::uint32_t job,
                   std::uint32_t machine, std::uint32_t task, double value);
  /// Structural worker invariants -> auditor over workers [lo, hi)
  /// (a shard's territory at its heartbeat, the fleet at end of run).
  void AuditWorkers(bool final_state, cluster::MachineId lo,
                    cluster::MachineId hi);

  void HandleJobArrival(trace::JobId id);
  // Failure injection.
  void ScheduleNextFailure(cluster::MachineId id);
  /// `auto_repair` schedules the stochastic mttr repair (off for
  /// InjectFailure, whose caller controls repair timing).
  void FailMachine(WorkerState& worker, bool auto_repair);
  void RepairMachine(WorkerState& worker);
  /// Evicts the worker's in-flight work and re-covers it: the fetch holding
  /// the control slot is cancelled (its probe bounced, its sticky job
  /// re-covered), then — only when `kill_runs` — every run is killed and
  /// replayed elsewhere and the machine's share of open gang rounds is
  /// released. Shared by the failure and forced-retire paths; a drain
  /// passes kill_runs=false to free the control slot only.
  void EvictWork(WorkerState& worker, bool kill_runs);
  /// Frees the control slot of a fetch that will never land (cancelled or
  /// timed out) and re-covers what it held: the probe being resolved
  /// bounces, a sticky-fetched job with unplaced tasks is re-dispatched.
  void ReleaseControlSlot(WorkerState& worker);
  /// Every attempt of the fetch holding `wid`'s control slot timed out:
  /// release the slot and look for other work.
  void AbortFetch(cluster::MachineId wid);
  /// Clears the load signals a commission, park, retire or repair
  /// invalidates: the estimator, the E[W] snapshot, the CRV mark and a
  /// pending steal.
  void ResetLoadSignals(WorkerState& worker);
  /// Closes the in-service machine-seconds integral at the current time
  /// (call before the membership view's in-service count changes).
  void AccrueInService();
  /// The one QueueEntry builder: `kind` entry of `job` (`task_index` is
  /// meaningful for bound tasks only).
  QueueEntry MakeEntry(const JobRuntime& job, QueueEntry::Kind kind,
                       std::uint32_t task_index = 0) const;
  /// Entry re-covering one lost task of `job` (a killed run or a lost
  /// sticky fetch): a probe on the distributed plane, else the next task
  /// index bound early (always for DAG, gang and malleable jobs).
  QueueEntry ReplayEntry(JobRuntime& job);
  /// Re-dispatches an entry that lost its worker: probes are re-sent to a
  /// fresh satisfying target, bound tasks are re-bound through
  /// PickBindTarget.
  /// `delay` is the transit time (bounces off still-failed destinations use
  /// a backoff so a fully-failed pool cannot spin the event loop).
  void RedispatchEntry(QueueEntry entry, double delay);
  /// An entry that will never reach its target (destination failed in
  /// transit, or every delivery attempt timed out): balances the probe
  /// accounting (stale probes dissolve) and re-dispatches live work after
  /// `delay`. Shared by the transit-bounce, rpc-give-up, and machine-failure
  /// drain paths.
  void BounceUndelivered(QueueEntry entry, cluster::MachineId target,
                         double delay);
  /// Fabric delivery of an entry at `target` (the receiving half of
  /// SendEntry, also reached by duplicated copies exactly once).
  void DeliverEntry(cluster::MachineId target, QueueEntry entry);
  /// Appends `entry` to the worker's queue, stamped now, with every load
  /// signal it feeds — the mirror of RemoveQueueAt.
  void EnqueueEntry(WorkerState& worker, QueueEntry entry);
  /// SendEntry exhausted its delivery attempts toward `target`.
  void GiveUpEntry(cluster::MachineId target, QueueEntry entry);
  /// The dense hints as `worker`'s record and lifecycle state define them.
  obs::WorkerHints HintsOf(const WorkerState& worker) const;
  /// The dense hints as stored for machine `id`.
  obs::WorkerHints StoredHints(cluster::MachineId id) const;
  /// The one writer of the dense hints: recomputes `worker`'s from its
  /// record, and moves the live running sums when its live bit flips. A
  /// recompute keeps one definition of each hint instead of incremental
  /// updates that could drift from it.
  void RefreshHints(const WorkerState& worker);

  void PlaceDistributed(JobRuntime& job);
  /// Counts and sends one probe of `job` to each of `targets`.
  void SendProbes(JobRuntime& job,
                  const std::vector<cluster::MachineId>& targets);
  void PlaceCentralized(JobRuntime& job);
  /// Early binding of task `task_index`: candidates, placement filter,
  /// PickBindTarget, rack note, send. The per-task body of centralized,
  /// DAG and malleable placement.
  void BindTask(JobRuntime& job, std::uint32_t task_index);
  /// Early-binding target among `candidates`: the best vector fit under
  /// packing (PickBestPacked), else the least-loaded live machine, falling
  /// back to a fresh draw from the job's satisfying pool when every
  /// candidate is down (the delivery bounce re-dispatches if that draw is
  /// down too).
  cluster::MachineId PickBindTarget(
      const std::vector<cluster::MachineId>& candidates, JobRuntime& job);
  void ResolveProbe(WorkerState& worker, QueueEntry entry);
  /// The worker has room to start `entry` now: a single-slot worker when it
  /// runs nothing, a packed machine when the demand fits its residual.
  bool HasRoom(const WorkerState& worker, const QueueEntry& entry) const;
  /// Starts task `task_index` of `job` as a new run on `worker`. `popped` is
  /// the entry it came from — its restart penalty and starvation/preemption
  /// state travel with the run — or null for a task that never queued (a
  /// sticky fetch). `from_reserve` marks gang members whose capacity was
  /// claimed at reservation time.
  void StartRun(WorkerState& worker, JobRuntime& job, std::uint32_t task_index,
                const QueueEntry* popped, bool from_reserve = false);
  /// Completion event of run `run_id` on `wid`.
  void FinishRun(cluster::MachineId wid, std::uint32_t run_id,
                 double duration);
  /// Takes `run`, already off the run list, off the machine's ledgers: the
  /// unserved remainder of its busy time and packed core-seconds, and its
  /// packed capacity. A caller stopping the run early cancels its
  /// completion event first; at completion the event has fired and the
  /// remainder is 0.
  void StopRun(WorkerState& worker, const Run& run);
  /// Closes the machine's exec metering once its last run is gone.
  void MeterExecEnd(const WorkerState& worker);
  /// One heartbeat of `shard`'s territory (shard 0 covers the whole fleet
  /// when federation is off); each shard runs its own tick chain.
  void HeartbeatTick(std::uint32_t shard);
  void RecordTaskStart(JobRuntime& job, sim::SimTime start);

  // ---- Packing (all unreachable when packing_on_ is false) ----------------

  /// The entry's demand fits the worker's residual vector. A probe of a
  /// fully placed job always "fits": it dissolves at resolution without
  /// claiming capacity, and fit-gating it would strand it in the queue.
  bool PackedFits(const WorkerState& worker, const QueueEntry& entry) const {
    if (entry.kind == QueueEntry::Kind::kProbe && jobs_[entry.job].AllPlaced()) {
      return true;
    }
    return jobs_[entry.job].demand.FitsIn(worker.residual);
  }
  /// Post-admission feasibility clamp: guarantees at least one machine
  /// satisfying the job's effective constraints can host its demand.
  void ClampDemandToHostable(JobRuntime& job);
  /// Residual ledger moves, paired with the auditor's claim/release events.
  /// The only writers of a residual after construction, so they also keep
  /// the machine's mean_copies_ and residual_spread_ current.
  void ClaimPackedCapacity(WorkerState& worker,
                           const packing::ResourceVector& demand,
                           double copies, trace::JobId job);
  void ReleasePackedCapacity(WorkerState& worker,
                             const packing::ResourceVector& demand,
                             double copies, trace::JobId job);
  /// Recomputes the two per-machine values read off `worker.residual`,
  /// and the live mean-copies sum with them.
  void NoteResidual(const WorkerState& worker);
  /// Best packing score among live fitting candidates (lowest id ties);
  /// least-loaded among live ones when nothing fits (the task queues).
  cluster::MachineId PickBestPacked(
      const std::vector<cluster::MachineId>& candidates, JobRuntime& job);

  // Gang scheduling: atomic multi-machine reserve -> commit/abort.
  void PlaceGang(trace::JobId id);
  void DeliverGangMember(cluster::MachineId target, QueueEntry entry);
  void CloseGangMember(trace::JobId id);
  void CommitGang(trace::JobId id);
  void AbortGang(trace::JobId id);
  /// Arms the capped-exponential-backoff retry timer for the gang's next
  /// reservation round. Returns the backoff chosen (the kGangAbort payload).
  double ScheduleGangRetry(JobRuntime& job);
  /// Clears `worker`'s part of any open gang round (failure/retire path):
  /// releases its reservation and fails the gang so it aborts and retries.
  void EvictGangReservations(WorkerState& worker);

  // Malleable jobs: shrink/expand parallelism from the packed supply signal.
  void PlaceMalleable(trace::JobId id);
  /// Places bound tasks until inflight reaches the job's current width.
  void TopUpMalleable(JobRuntime& job);
  /// Heartbeat pass (fleet tick only): recompute every active malleable
  /// job's width from the free-capacity estimate.
  void RefreshMalleableWidths();
  /// Whole copies of the job's demand the bindable fleet could start now,
  /// counted up to `enough` (the walk stops there).
  std::uint32_t PackedFreeCopies(const JobRuntime& job,
                                 std::uint32_t enough) const;

  // ---- Federation (all unreachable when federation_ is null) --------------

  /// Recomputes `shard`'s digest over its territory [lo, hi) and publishes
  /// it to the plane (mean E[W], live count, free slots).
  void RefreshShardDigest(std::uint32_t shard, cluster::MachineId lo,
                          cluster::MachineId hi);
  /// Eligible draw constrained to `shard`'s territory by bounded rejection
  /// sampling; falls back to a global draw (counted) when the constraint
  /// pool misses the territory.
  cluster::MachineId SampleEligibleInShard(const cluster::ConstraintSet& cs,
                                           std::uint32_t shard);
  /// Federated placement bodies (home-territory sampling + optimistic
  /// offload); PlaceDistributed/PlaceCentralized branch to these.
  void PlaceDistributedFederated(JobRuntime& job);
  void PlaceCentralizedFederated(JobRuntime& job);

  // ---- Tenancy (all no-ops / never called when tenancy_on_ is false) ------

  /// Runs the tenant admission lattice for an arriving job: resolves the
  /// tenant tag, charges quota, and applies the decision (priority, SLO
  /// strip, constraint relaxation). Emits TENANT_* events.
  void ApplyTenantAdmission(JobRuntime& job);
  /// Per-tenant constrained-queue-pressure accounting (sign = +1 enqueue,
  /// -1 dequeue), behind TenantRegistry::ConstrainedShare.
  void TenantQueuedDelta(const QueueEntry& entry, double sign);
  /// A prod-class entry was just delivered and has no room to start: judge
  /// the runs newest first, each by its own snapshot, and kill-and-requeue
  /// eligible best-effort victims until the entry has room. Guard and cap
  /// blocks are counted for every victim they save.
  void MaybePreemptFor(WorkerState& worker, const QueueEntry& entry);
  /// Kills run `index` and requeues its task on the same worker with the
  /// modeled restart cost. Emits PREEMPT_ISSUE / PREEMPT_REQUEUE.
  void PreemptRun(WorkerState& worker, std::size_t index);
  /// Priority-class promotion over the discipline's choice: the first
  /// queued entry of a strictly higher class than `chosen`'s runs instead
  /// (never overrides a slack-guard selection).
  std::size_t PromoteByPriority(const WorkerState& worker,
                                std::size_t chosen) const;
  /// Releases the job's quota charge and scores its SLO at completion.
  void OnTenantJobComplete(JobRuntime& job);

  // ---- Workflow (all unreachable when dag_on_ / deadline_on_ are false) ---

  /// The job's dispatch is precedence-driven: tasks enter the bound plane
  /// only as their predecessors finish. Flat jobs (and every job with the
  /// --dag gate off) take the original planes untouched.
  bool DagManaged(const JobRuntime& job) const {
    return dag_on_ && job.spec->has_deps();
  }
  /// Arrival placement for a DAG job: builds the precedence state and
  /// dispatches every source (indegree-zero) task.
  void PlaceDagJob(JobRuntime& job);
  /// Binds one released DAG task early (BindTask), emitting kDagRelease.
  void PlaceDagTask(JobRuntime& job, std::uint32_t task_index);
  /// A DAG task finished: decrement successor indegrees and dispatch every
  /// newly-ready task in critical-path order (longest downstream work
  /// first), emitting kDagReady per release.
  void ReleaseDagSuccessors(JobRuntime& job, std::uint32_t task_index);
  /// Sorts `ready` by downstream critical-path work (descending, index
  /// ascending on ties), emits kDagReady for each, and dispatches them.
  void DispatchReadyDagTasks(JobRuntime& job,
                             std::vector<std::uint32_t>& ready);
  /// Derives the job's absolute deadline from its SLA class multiplier over
  /// the expected critical-path length (mean-duration based; flat jobs use
  /// their longest task). Called at arrival when deadline_on_.
  void AssignDeadline(JobRuntime& job);
  /// Scores the finished job against its deadline: per-class attainment
  /// tally, kDeadlineMiss emission, miss counter.
  void ScoreDeadline(JobRuntime& job);
  /// EDF tie-break over the discipline's choice: the first queued entry
  /// with a strictly earlier deadline than `chosen`'s runs instead (never
  /// overrides a slack-guard selection; untracked jobs rank last).
  std::size_t PromoteByDeadline(const WorkerState& worker,
                                std::size_t chosen);

  sim::Engine& engine_;
  const cluster::Cluster& cluster_;
  SchedulerConfig config_;
  util::Rng rng_;
  net::NetworkFabric fabric_;
  net::Rpc rpc_;

  /// Hot-path bump allocator backing worker queues and job replay lists.
  /// Declared before workers_/jobs_ so it outlives them (containers release
  /// their blocks into the arena's free lists during destruction).
  util::Arena arena_;

  /// Contiguous per-worker state. Sized once at construction (the machine
  /// universe is fixed; elasticity only flips lifecycle states), so
  /// references handed out by worker()/worker_state() stay stable.
  std::vector<WorkerState> workers_;
  /// Dense parallel array: queued short-probe count per worker, maintained
  /// at the two queue-mutation sites (EnqueueEntry, RemoveQueueAt), with
  /// its fleet-wide sum beside it. TryStealFor's random victim probes read
  /// this 4-byte hint instead of pulling the victim's whole WorkerState
  /// through the cache; zero means the queue scan would find nothing
  /// stealable (a failed machine's drained queue included), so the scan —
  /// not the RNG draw — is skipped, keeping the draw sequence and thus
  /// every outcome bit-identical.
  std::vector<std::uint32_t> short_probe_counts_;
  std::uint64_t short_probes_queued_ = 0;
  /// The dense heartbeat hints (see live() and RefreshHints): the live
  /// set with its count and mean-copies sum, one occupancy and one steal
  /// gate byte per machine, and the SSS long-busy byte.
  util::Bitset live_;
  std::size_t live_count_ = 0;
  std::uint64_t live_copies_ = 0;
  std::vector<std::uint8_t> occupied_;
  std::vector<std::uint8_t> steal_gate_;
  std::vector<std::uint8_t> long_busy_;
  std::vector<JobRuntime> jobs_;
  std::size_t jobs_done_ = 0;

  std::string trace_name_;
  std::vector<obs::EventSink*> sinks_;
  obs::InvariantAuditor* auditor_ = nullptr;
  metrics::SchedulerCounters counters_;
  double total_busy_time_ = 0;
  sim::SimTime makespan_ = 0;
  /// Jobs whose estimated mean task duration is at most this are short
  /// (set from the trace by SubmitTrace).
  double short_cutoff_ = 0;

  /// Multi-tenant state. tenancy_on_ gates every tenancy touch point so a
  /// zero-tenant config never enters a tenancy branch (byte-identity).
  bool tenancy_on_ = false;
  tenancy::TenantRegistry tenants_;
  tenancy::PreemptionPolicy preempt_policy_;
  /// Fleet-mean E[W] snapshot, refreshed each heartbeat; the wait estimate
  /// the admission lattice tests short-job SLOs against.
  double fleet_wait_estimate_ = 0;

  /// Sharded control plane; null (the default) keeps every federation
  /// branch unreachable and the scheduler byte-identical to unsharded runs.
  std::unique_ptr<federation::FederationPlane> federation_;

  /// Elastic membership (null on a static fleet) and the in-service
  /// machine-seconds integral behind SimReport::active_machine_seconds.
  cluster::MembershipView* membership_ = nullptr;
  double in_service_seconds_ = 0;
  double last_membership_change_ = 0;

  /// Power manager (null by default): gates DVFS service-time scaling, the
  /// exec on/off metering hooks, and the energy fields of BuildReport.
  power::PowerManager* power_ = nullptr;

  /// Per-SLA-class energy attribution (index = tenancy::PriorityClass rank;
  /// untenanted work lands in batch). Accumulated at task completion when a
  /// power manager is attached; surfaced via SimReport.
  std::array<double, 3> class_exec_joules_{};
  std::array<std::uint64_t, 3> class_tasks_{};

  /// Multi-resource packing state. packing_on_ gates every packing touch
  /// point — room per run, the capacity ledger, packing placement — so a
  /// default config keeps the paper's one-run-per-worker model.
  bool packing_on_ = false;
  packing::ResourceVector max_capacity_;    // component-wise fleet max
  packing::ResourceVector fleet_capacity_;  // component-wise fleet sum
  /// Closed-form mean of the demand sampler (effective-server counts and
  /// the CRV supply scale price capacity in units of it).
  packing::ResourceVector mean_demand_;
  /// Largest-volume machine's capacity: the clamp target for demands that
  /// fit no machine (the reject-then-clamp admission path).
  packing::ResourceVector clamp_capacity_;
  /// Per machine, from its residual (see NoteResidual): whole mean-demand
  /// copies it could still start (PackedSupplyScale), and the spread
  /// between its most- and least-consumed dimension (fragmentation).
  std::vector<std::uint32_t> mean_copies_;
  std::vector<double> residual_spread_;
  /// Packed-run integrals behind the BuildReport packing block:
  /// core-seconds actually executed, and the heartbeat-sampled
  /// fragmentation (max-min residual-fraction spread, fleet mean).
  double packed_core_seconds_ = 0;
  double frag_sum_ = 0;
  std::uint64_t frag_samples_ = 0;
  double gang_wait_sum_ = 0;

  /// One open reservation round per gang job: capacity is claimed on every
  /// member machine up front, member entries stage here, and the round
  /// closes with exactly one commit (all arrived) or abort (hold expired /
  /// machine lost). Ordered map: abort/commit iteration must be
  /// deterministic across runs.
  struct GangState {
    std::vector<std::pair<cluster::MachineId, std::uint32_t>> reserved;
    std::vector<std::pair<cluster::MachineId, QueueEntry>> staged;
    std::uint32_t expected = 0;  // member count of this round
    std::uint32_t closed = 0;    // members delivered (staged or failed)
    bool failed = false;  // a member machine died mid-round
    /// Bounded-hold timer; always armed while the round is open (Cancel on
    /// an already-fired id is a safe no-op, so close paths cancel blindly).
    sim::Engine::EventId hold_event = 0;
  };
  std::map<trace::JobId, GangState> gangs_;

  /// Ascending-id list of malleable jobs with tasks left to place; the
  /// heartbeat width-refresh pass walks it in order (determinism).
  std::vector<trace::JobId> malleable_active_;

  /// Workflow state. dag_on_ / deadline_on_ gate every workflow touch point
  /// so a default config never enters a workflow branch (byte-identity).
  /// DAG precedence state lives in a side vector (not JobRuntime, which
  /// must stay cheaply copyable for the prototype-assign in SubmitTrace),
  /// indexed by job id, null for flat jobs.
  bool dag_on_ = false;
  bool deadline_on_ = false;
  std::vector<std::unique_ptr<workflow::DagState>> dag_states_;
  /// Per-SLA-class deadline attainment (index = class rank), surfaced via
  /// SimReport when deadline_on_.
  std::array<std::uint64_t, 3> class_deadline_jobs_{};
  std::array<std::uint64_t, 3> class_deadline_attained_{};
};

}  // namespace phoenix::sched

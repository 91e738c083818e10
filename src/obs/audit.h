// Online invariant auditor.
//
// Consumes the observability event stream during a run and checks the
// conservation laws the scheduler framework promises:
//
//   * probe conservation — every probe sent is eventually resolved,
//     cancelled, declined, or bounced, and a job's outstanding probe
//     balance never goes negative;
//   * task conservation — executions started equal completions plus
//     failure kills, and every job finishes exactly its task count;
//   * machine lifecycle — fail/repair events alternate per machine;
//   * elastic lifecycle — park/provision/commission/drain/retire events
//     follow the legal state machine, no task ever starts on a machine
//     outside the fleet (parked/provisioning/retired), no probe resolves
//     and no steal lands on a non-active machine, and no machine is left
//     provisioning or draining when the run ends (capacity conservation);
//   * message conservation — every control-plane message the fabric sends
//     is eventually delivered, dropped, or expired, exactly once, and none
//     is still in flight when the run drains;
//   * preemption conservation — every kPreemptIssue is matched by exactly
//     one kPreemptRequeue for the same (job, task), none is outstanding at
//     the end of the run, and a preempted task counts as killed in the
//     start/completion balance (so "requeued or completed exactly once"
//     follows from task conservation);
//   * quota non-violation — the post-charge quota fraction carried by
//     kTenantAdmit / kTenantDowngrade stays within [0, 1]: admission never
//     commits a tenant past its machine-second budget;
//   * federated bind conservation — every optimistic cross-shard
//     kFedBindSend is closed by exactly one kFedBindAccept or
//     kFedBindReject for the same (job, task), none is outstanding at the
//     end of the run, an accept never lands on a non-active machine, and
//     no accept/reject appears without its send (stale gossip views may
//     degrade placement into rejects, never into lost or doubled binds);
//   * gossip monotonicity — the digest version carried by each kGossipApply
//     is strictly increasing per (receiver shard, origin shard) pair:
//     a reordered or replayed digest must be dropped, never applied;
//   * power legality + energy conservation — a power park decision lands
//     only on an active/draining machine, a wake only on a parked one, a
//     DVFS step only on an active one, and when the scheduler declares its
//     meter total via ExpectEnergy the kPowerState stream integrated over
//     state dwells (joules = Sigma dwell x watts) must match it;
//   * packed-capacity conservation — per (machine, dimension), claims minus
//     releases (the kPackClaim / kPackRelease stream) never exceed the
//     capacity declared by kPackCapacity, never go negative, and return to
//     exactly zero by the end of the run (no leaked reservation or run);
//   * gang atomicity — a job's kGangReserve events open a reservation round
//     that must be closed by exactly one kGangCommit or kGangAbort, no task
//     of the job starts while a round is open (members start only after the
//     atomic commit), and no round is still open when the run ends;
//   * DAG precedence — per (job, task), kDagReady and kDagRelease each fire
//     at most once, a release requires its ready, no kTaskStart of a DAG
//     job happens without a prior kDagReady for that task (a task never
//     runs before all its predecessors finish), and at the end of the run
//     every DAG job's released count equals its task count;
//   * deadline sanity — kDeadlineMiss fires at most once per job, with a
//     positive lateness, for a job that actually arrived;
//   * worker structure (fed by the scheduler at each heartbeat and at the
//     end of the run) — a fetch holding a worker's control slot always has
//     a live RPC, a failed worker holds no fetch, every run has its pending
//     completion event on an in-service, live machine, and queues and run
//     lists drain by the end of the run;
//   * hint agreement (fed the same way) — every dense per-machine hint the
//     scheduler's heartbeat passes read (live, occupied, steal gate, long
//     busy) equals the value the worker record gives.
//
// The auditor only records violations; the runner (or test) decides
// whether to abort. `ok()` + `Summary()` give the verdict.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/event.h"
#include "util/flat_hash.h"

namespace phoenix::obs {

/// The dense per-machine hints a scheduler keeps beside its worker records
/// for its heartbeat passes (sched::SchedulerBase, DESIGN §4b2).
struct WorkerHints {
  bool live = false;        // up and bindable
  bool occupied = false;    // holds a fetch, queued entries or runs
  bool steal_gate = false;  // wants work, no steal in flight, bindable
  bool long_busy = false;   // holds long work, queued or running
};

class InvariantAuditor final : public EventSink {
 public:
  InvariantAuditor() = default;

  void OnEvent(const Event& event) override;

  /// Structural worker check, called by the scheduler that owns the worker
  /// state (the event stream alone cannot see slot/queue internals).
  /// `final_state` additionally requires the worker to be drained.
  /// `out_of_service` marks a machine outside the fleet (parked,
  /// provisioning, or retired) — such a machine must hold no work at all.
  void CheckWorker(double now, std::uint32_t machine, bool busy, bool failed,
                   bool has_live_slot_event, std::size_t queue_len,
                   double est_queued_work, bool final_state,
                   bool out_of_service = false);

  /// Hint check: every hint the scheduler stores for `machine` (`hinted`)
  /// must equal the value its worker record gives (`actual`). A hint left
  /// stale by a missed refresh misleads every heartbeat pass that reads it.
  void CheckHints(double now, std::uint32_t machine, const WorkerHints& hinted,
                  const WorkerHints& actual);

  /// Structural check of one executing run on `machine`: a run never sits
  /// on a failed or out-of-service machine, is always backed by its pending
  /// completion event, and none is left when the run ends (`final_state`).
  void CheckRun(double now, std::uint32_t machine, std::uint32_t job,
                std::uint32_t task, bool failed, bool out_of_service,
                bool completion_pending, bool final_state);

  /// Declares the scheduler-side energy integral for the end-of-run energy
  /// conservation check: the kPowerState stream integrated to `horizon`
  /// must match `joules` within a relative tolerance. Call before Finish.
  void ExpectEnergy(double joules, double horizon);

  /// Integral of the observed kPowerState stream with every dwell closed
  /// at `horizon` (the auditor's side of the energy-conservation balance).
  double IntegratedJoules(double horizon) const;

  /// End-of-run conservation checks. Call after the event queue drains.
  void Finish();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  /// First few violations joined for PHOENIX_CHECK messages.
  std::string Summary() const;

  std::uint64_t events_seen() const { return events_seen_; }
  /// Fabric message accounting (for tests asserting the conservation rule
  /// actually observed traffic).
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_terminated() const { return messages_terminated_; }
  /// Preemption accounting (for tests asserting the conservation rule
  /// actually observed kill-and-requeue traffic).
  std::uint64_t preemptions_issued() const { return preemptions_issued_; }
  std::uint64_t preemptions_requeued() const { return preemptions_requeued_; }
  /// Federated bind / gossip accounting (for tests asserting the federation
  /// rules actually observed cross-shard traffic).
  std::uint64_t fed_binds_sent() const { return fed_binds_sent_; }
  std::uint64_t fed_binds_closed() const { return fed_binds_closed_; }
  std::uint64_t gossip_applies() const { return gossip_applies_; }
  /// Power accounting (for tests asserting the energy rules observed a
  /// powered run's transition stream).
  std::uint64_t power_events_seen() const { return power_events_seen_; }
  /// Packing accounting (for tests asserting the capacity-conservation and
  /// gang-atomicity rules actually observed packed traffic).
  std::uint64_t pack_claims_seen() const { return pack_claims_seen_; }
  std::uint64_t gang_rounds_opened() const { return gang_rounds_opened_; }
  std::uint64_t gang_rounds_closed() const { return gang_rounds_closed_; }
  /// DAG / deadline accounting (for tests asserting the precedence rules
  /// actually observed workflow traffic).
  std::uint64_t dag_ready_seen() const { return dag_ready_seen_; }
  std::uint64_t dag_releases_seen() const { return dag_releases_seen_; }
  std::uint64_t deadline_misses_seen() const { return deadline_misses_seen_; }

 private:
  struct JobStats {
    bool arrived = false;
    bool done = false;
    std::uint64_t tasks = 0;  // from the arrival event's value
    std::uint64_t probes_sent = 0;
    std::uint64_t probes_resolved = 0;
    std::uint64_t probes_cancelled = 0;
    std::uint64_t probes_declined = 0;
    std::uint64_t probes_bounced = 0;
    std::uint64_t starts = 0;
    std::uint64_t completes = 0;
    std::uint64_t kills = 0;

    std::int64_t OutstandingProbes() const {
      return static_cast<std::int64_t>(probes_sent) -
             static_cast<std::int64_t>(probes_resolved + probes_cancelled +
                                       probes_declined + probes_bounced);
    }
  };

  JobStats& JobFor(std::uint32_t id);
  void Violate(std::string message);
  /// Elastic lifecycle table entry for `machine` (lazily sized; machines
  /// never mentioned by a lifecycle event default to active, matching the
  /// static-fleet world where every machine is always in service).
  std::uint8_t& LifecycleFor(std::uint32_t machine);
  void OnLifecycleEvent(const Event& event);

  std::vector<JobStats> jobs_;
  std::vector<bool> machine_failed_;
  std::vector<std::uint8_t> machine_lifecycle_;
  /// Fabric messages sent but not yet delivered/dropped/expired, by id.
  /// Flat: every chaos-path message inserts and erases one id.
  util::FlatHashSet inflight_messages_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_terminated_ = 0;
  /// Preempted (job, task) pairs awaiting their kPreemptRequeue.
  std::unordered_set<std::uint64_t> outstanding_preemptions_;
  std::uint64_t preemptions_issued_ = 0;
  std::uint64_t preemptions_requeued_ = 0;
  /// Cross-shard (job, task) binds awaiting their accept/reject handshake.
  std::unordered_set<std::uint64_t> outstanding_fed_binds_;
  /// Last applied digest version per (receiver shard << 32 | origin shard).
  std::unordered_map<std::uint64_t, std::uint64_t> gossip_versions_;
  std::uint64_t fed_binds_sent_ = 0;
  std::uint64_t fed_binds_closed_ = 0;
  std::uint64_t gossip_applies_ = 0;
  /// Per-machine dwell integral of the kPowerState stream.
  struct PowerChannel {
    double watts = 0;
    double last = 0;
    double joules = 0;
    bool seen = false;
  };
  std::vector<PowerChannel> power_channels_;
  std::uint64_t power_events_seen_ = 0;
  /// Packed-capacity ledger per (machine << 3 | dimension): capacity from
  /// kPackCapacity, outstanding = claims - releases.
  struct PackLedger {
    double capacity = 0;
    double outstanding = 0;
    bool declared = false;
  };
  std::unordered_map<std::uint64_t, PackLedger> pack_ledgers_;
  std::uint64_t pack_claims_seen_ = 0;
  /// Gang reservation rounds per job: open until the commit/abort closes it.
  struct GangAudit {
    bool open = false;
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
  };
  std::unordered_map<std::uint32_t, GangAudit> gang_rounds_;
  std::uint64_t gang_rounds_opened_ = 0;
  std::uint64_t gang_rounds_closed_ = 0;
  /// DAG precedence ledger per job (present only for jobs that emitted a
  /// kDagReady): (job << 32 | task) membership sets enforce the
  /// at-most-once rules, released counts close against the job's task count
  /// at Finish().
  struct DagAudit {
    std::uint64_t ready = 0;
    std::uint64_t released = 0;
  };
  std::unordered_map<std::uint32_t, DagAudit> dag_jobs_;
  std::unordered_set<std::uint64_t> dag_ready_set_;
  std::unordered_set<std::uint64_t> dag_released_set_;
  std::unordered_set<std::uint32_t> deadline_missed_jobs_;
  std::uint64_t dag_ready_seen_ = 0;
  std::uint64_t dag_releases_seen_ = 0;
  std::uint64_t deadline_misses_seen_ = 0;
  bool energy_expected_ = false;
  double expected_joules_ = 0;
  double energy_horizon_ = 0;
  std::vector<std::string> violations_;
  std::uint64_t events_seen_ = 0;
};

}  // namespace phoenix::obs

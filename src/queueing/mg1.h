// Pollaczek–Khinchine M/G/1 waiting-time estimation (paper Equation 1).
//
//   E[W] = rho / (1 - rho) * E[S^2] / (2 E[S])
//
// Phoenix estimates the expected waiting time of every worker queue from
// the worker's recent inter-arrival times (lambda) and service times (E[S],
// E[S^2]), then uses the estimate to decide which congested queues to
// reorder. The paper argues the estimator is accurate for its setting
// because the hybrid split (long jobs -> centralized, short -> distributed)
// keeps per-queue service-time variance low, preserving the stationarity
// the P-K formula assumes (§IV-A).
#pragma once

#include <cstdint>

#include "queueing/stats.h"
#include "sim/simtime.h"

namespace phoenix::queueing {

/// Pure closed-form P-K wait. rho >= 1 returns +infinity (unstable queue —
/// callers treat it as "beyond any threshold").
double PkWait(double rho, double es, double es2);

/// Closed-form M/M/1 waiting time (exponential service). Used by tests as
/// an independent check: P-K with E[S^2] = 2/mu^2 must reduce to this.
double Mm1Wait(double lambda, double mu);

/// Erlang-C: probability an arrival must wait in an M/M/c queue with
/// arrival rate lambda, per-server rate mu and c servers. Returns 1.0 for
/// an unstable system (lambda >= c*mu).
double ErlangC(double lambda, double mu, unsigned servers);

/// Mean waiting time in an M/M/c queue (infinite for unstable systems).
/// With c=1 this reduces to Mm1Wait — a cross-check used in tests. The
/// multi-server form bounds what a *pooled* scheduler could achieve versus
/// the paper's per-worker queues, quantifying the price of distribution.
double MmcWait(double lambda, double mu, unsigned servers);

/// Online per-worker estimator implementing Algorithm 1's
/// Estimate_Waiting_Time procedure: lambda <- Avg(inter-arrival rate),
/// mu <- Avg(last serviced tasks), E[W] <- Equation 1.
class WorkerWaitEstimator {
 public:
  /// `window`: number of recent samples kept for each moment estimate.
  explicit WorkerWaitEstimator(std::size_t window = 64);

  /// Records a task/probe arrival at the worker at time `now`.
  void OnArrival(sim::SimTime now);

  /// Records a completed service of duration `service_time`.
  void OnServiceComplete(double service_time);

  /// Current estimate of E[W]; +infinity when the observed load is >= 1,
  /// 0 when there is not yet enough data to estimate. Memoized: the
  /// fleet passes (the tenancy and elasticity fleet means, the power
  /// controller, Phoenix's lossy or sharded report walk) poll many
  /// estimates per heartbeat, but the inputs only move on
  /// arrival/completion, so repeated polls between samples are one flag
  /// test.
  double EstimateWait() const;

  /// Observed utilization rho = lambda * E[S] (0 when unseeded).
  double EstimateRho() const;

  double lambda() const;
  double expected_service() const { return service_.mean(); }

  /// Wake-cost penalty added to EstimateWait while the worker is parked in
  /// deep sleep (src/power): a sleeping machine is supply whose expected
  /// wait is its wake latency. Set at park, reset by Clear() when the
  /// machine is commissioned back. Zero (the default) leaves the estimate
  /// untouched — the penalty path is branch-gated for byte identity.
  void SetWakePenalty(double penalty) { wake_penalty_ = penalty; }
  double wake_penalty() const { return wake_penalty_; }

  /// Effective-server count c (src/packing): a multi-slot machine serving c
  /// mean-demand tasks concurrently behaves like c pooled servers, so its
  /// expected wait divides by c — the per-machine generalization of the P-K
  /// estimate that keeps E[W]-guided probe ranking meaningful under vector
  /// packing. c == 1 (the default) is branch-gated for byte identity.
  /// Unlike the wake penalty, Clear() preserves it: the count derives from
  /// the machine's static capacity vector, not from learned load.
  void SetEffectiveServers(std::uint32_t servers) {
    effective_servers_ = servers > 0 ? servers : 1;
  }
  std::uint32_t effective_servers() const { return effective_servers_; }

  void Clear();

 private:
  WindowedStats interarrival_;
  WindowedStats service_;
  sim::SimTime last_arrival_ = -1.0;
  double wake_penalty_ = 0.0;
  std::uint32_t effective_servers_ = 1;
  mutable double cached_wait_ = 0.0;
  mutable bool wait_dirty_ = true;
};

}  // namespace phoenix::queueing

// Microbenchmarks (google-benchmark) for the components on the scheduling
// fast path, backing the paper's §VI-C overhead claims: CRV ratio updates
// are "trivial logic on simple bit vectors", wait-time estimation is O(1)
// per sample, and reordering costs O(queue length) per pop.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "cluster/builder.h"
#include "core/crv.h"
#include "queueing/mg1.h"
#include "sim/engine.h"
#include "trace/synthesizer.h"
#include "util/rng.h"

namespace {

using namespace phoenix;

const cluster::Cluster& SharedCluster(std::size_t nodes) {
  static std::map<std::size_t, std::unique_ptr<cluster::Cluster>> cache;
  auto& slot = cache[nodes];
  if (!slot) {
    slot = std::make_unique<cluster::Cluster>(
        cluster::BuildCluster({.num_machines = nodes, .seed = 1}));
  }
  return *slot;
}

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.ScheduleAt(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

// Probe-cancellation pattern: most scheduled events are cancelled before
// firing (late binding cancels a job's sibling probes once placed). The
// engine compacts tombstones once they outnumber half the live entries,
// keeping the heap O(live) instead of O(scheduled).
void BM_EngineCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Engine::EventId> ids;
    ids.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
      ids.push_back(engine.ScheduleAt(static_cast<double>(i % 193), [] {}));
    }
    for (int i = 0; i < 4096; ++i) {
      if (i % 16 != 0) engine.Cancel(ids[static_cast<std::size_t>(i)]);
    }
    benchmark::DoNotOptimize(engine.Run());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EngineCancelHeavy);

// Same-day fan-out: one callback schedules K events into the day being
// served, as a probe wave or an RPC burst does. Each lands in the unserved
// ready tail by insertion; the offsets are a permutation of K ticks, so
// most inserts land mid-tail and shift the entries after them.
void BM_EngineSameDayBurst(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    int fired = 0;
    engine.ScheduleAt(1.0, [&engine, &fired, k] {
      for (int i = 0; i < k; ++i) {
        engine.ScheduleAfter(1e-6 * ((i * 7919) % k), [&fired] { ++fired; });
      }
    });
    benchmark::DoNotOptimize(engine.Run());
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * (k + 1));
}
BENCHMARK(BM_EngineSameDayBurst)->Arg(64)->Arg(1024);

void BM_ConstraintMatch(benchmark::State& state) {
  const auto& cl = SharedCluster(1);
  trace::ConstraintSynthesizer synth({.constrained_fraction = 1.0}, 2);
  std::vector<cluster::ConstraintSet> sets;
  for (int i = 0; i < 256; ++i) sets.push_back(synth.Synthesize());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cl.machine(0).Satisfies(sets[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConstraintMatch);

void BM_SatisfyingPoolLookup(benchmark::State& state) {
  const auto& cl = SharedCluster(static_cast<std::size_t>(state.range(0)));
  trace::ConstraintSynthesizer synth({.constrained_fraction = 1.0}, 3);
  std::vector<cluster::ConstraintSet> sets;
  for (int i = 0; i < 256; ++i) sets.push_back(synth.Synthesize());
  // Warm the memoization (steady-state behaviour: pools are cached).
  for (const auto& cs : sets) benchmark::DoNotOptimize(cl.CountSatisfying(cs));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cl.CountSatisfying(sets[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SatisfyingPoolLookup)->Arg(1000)->Arg(15000);

void BM_ProbeTargetSampling(benchmark::State& state) {
  const auto& cl = SharedCluster(static_cast<std::size_t>(state.range(0)));
  trace::ConstraintSynthesizer synth({.constrained_fraction = 1.0}, 4);
  std::vector<cluster::ConstraintSet> sets;
  for (int i = 0; i < 256; ++i) sets.push_back(synth.Synthesize());
  util::Rng rng(5);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cl.SampleSatisfying(sets[i++ & 255], 16, rng));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ProbeTargetSampling)->Arg(1000)->Arg(15000);

void BM_CrvMonitorUpdate(benchmark::State& state) {
  const auto& cl = SharedCluster(1000);
  core::CrvMonitor monitor(cl);
  trace::ConstraintSynthesizer synth({.constrained_fraction = 1.0}, 6);
  std::vector<cluster::ConstraintSet> sets;
  for (int i = 0; i < 256; ++i) sets.push_back(synth.Synthesize());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& cs = sets[i++ & 255];
    monitor.OnEnqueue(cs);
    monitor.OnDequeue(cs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrvMonitorUpdate);

void BM_CrvSnapshot(benchmark::State& state) {
  const auto& cl = SharedCluster(1000);
  core::CrvMonitor monitor(cl);
  trace::ConstraintSynthesizer synth({.constrained_fraction = 1.0}, 7);
  for (int i = 0; i < 5000; ++i) monitor.OnEnqueue(synth.Synthesize());
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.TakeSnapshot());
  }
}
BENCHMARK(BM_CrvSnapshot);

void BM_PkWaitEstimate(benchmark::State& state) {
  queueing::WorkerWaitEstimator est(64);
  util::Rng rng(8);
  double t = 0;
  for (int i = 0; i < 128; ++i) {
    t += rng.Uniform(0.1, 2.0);
    est.OnArrival(t);
    est.OnServiceComplete(rng.Uniform(0.5, 1.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.EstimateWait());
  }
}
BENCHMARK(BM_PkWaitEstimate);

void BM_PkEstimatorIngest(benchmark::State& state) {
  queueing::WorkerWaitEstimator est(64);
  util::Rng rng(9);
  double t = 0;
  for (auto _ : state) {
    t += 0.5;
    est.OnArrival(t);
    est.OnServiceComplete(rng.Uniform(0.5, 1.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PkEstimatorIngest);

}  // namespace

BENCHMARK_MAIN();

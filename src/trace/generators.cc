#include "trace/generators.h"

#include <algorithm>

#include "queueing/distributions.h"
#include "util/check.h"

namespace phoenix::trace {

namespace {

/// Geometric task count with the given mean (>= 1).
std::size_t SampleTaskCount(util::Rng& rng, double mean) {
  PHOENIX_DCHECK(mean >= 1.0);
  if (mean <= 1.0) return 1;
  const double p = 1.0 / mean;
  const double u = rng.NextDouble();
  const auto k = static_cast<std::size_t>(
      1.0 + std::floor(std::log1p(-u) / std::log1p(-p)));
  return std::max<std::size_t>(1, std::min<std::size_t>(k, 100000));
}

/// Mean of the lognormal.
double LogNormalMean(double mu, double sigma) {
  return std::exp(mu + sigma * sigma / 2.0);
}

}  // namespace

double ExpectedWorkPerJob(const GeneratorOptions& o) {
  const double short_work =
      o.short_tasks_mean *
      queueing::BoundedParetoMean(o.short_alpha, o.short_lo, o.short_hi);
  const double long_work =
      o.long_tasks_mean * LogNormalMean(o.long_mu, o.long_sigma);
  return o.short_job_fraction * short_work +
         (1.0 - o.short_job_fraction) * long_work;
}

Trace GenerateTrace(const std::string& name, const GeneratorOptions& o) {
  PHOENIX_CHECK(o.num_jobs > 0 && o.num_workers > 0);
  PHOENIX_CHECK(o.target_load > 0 && o.target_load < 1.5);
  PHOENIX_CHECK(o.burst_factor >= 1.0);
  PHOENIX_CHECK(o.burst_fraction >= 0 && o.burst_fraction < 1.0);

  util::Rng rng(o.seed ^ 0x9d2c5680ca876ccdULL);
  util::Rng arrival_rng = rng.Fork();
  util::Rng shape_rng = rng.Fork();
  ConstraintSynthesizer synth(o.synth, rng.Next());
  // Forked after every pre-existing stream, and drawn from only when a
  // tenant mix is configured: untagged traces stay byte-identical.
  util::Rng tenant_rng = rng.Fork();
  // Same fork-after-everything discipline as the tenant stream: the packing
  // stream exists (and is drawn from) only when a gang/malleable mix is
  // configured, so untagged traces stay byte-identical.
  const bool tag_packing = o.gang_fraction > 0 || o.malleable_fraction > 0;
  PHOENIX_CHECK(o.gang_fraction >= 0 && o.malleable_fraction >= 0 &&
                o.gang_fraction + o.malleable_fraction <= 1.0);
  PHOENIX_CHECK(o.malleable_min_frac >= 0 && o.malleable_min_frac <= 1.0);
  util::Rng packing_rng = tag_packing ? rng.Fork() : util::Rng(0);
  double tenant_weight_sum = 0;
  for (const double w : o.tenant_weights) {
    PHOENIX_CHECK_MSG(w >= 0, "tenant weights must be non-negative");
    tenant_weight_sum += w;
  }

  // Calibrate the average arrival rate to the target utilization, then
  // split into base/burst rates so the time-average matches.
  const double mean_job_work = ExpectedWorkPerJob(o);
  const double lambda_avg =
      o.target_load * static_cast<double>(o.num_workers) / mean_job_work;
  const double lambda_base =
      lambda_avg /
      ((1.0 - o.burst_fraction) + o.burst_factor * o.burst_fraction);
  const double lambda_burst = lambda_base * o.burst_factor;

  // Mean residence per MMPP state, derived from the burst time fraction.
  const double mean_on = o.burst_duration_mean;
  const double mean_off = o.burst_fraction > 0
                              ? mean_on * (1.0 - o.burst_fraction) / o.burst_fraction
                              : sim::kTimeInfinity;

  std::vector<Job> jobs;
  jobs.reserve(o.num_jobs);

  bool burst = false;
  double t = 0.0;
  double state_end =
      o.burst_fraction > 0
          ? queueing::SampleExponential(arrival_rng, 1.0 / mean_off)
          : sim::kTimeInfinity;

  while (jobs.size() < o.num_jobs) {
    const double rate = burst ? lambda_burst : lambda_base;
    const double gap = queueing::SampleExponential(arrival_rng, rate);
    if (t + gap >= state_end) {
      // State switch before the next arrival: advance to the boundary and
      // redraw the gap under the new rate (memorylessness makes this exact).
      t = state_end;
      burst = !burst;
      const double mean_stay = burst ? mean_on : mean_off;
      state_end = t + queueing::SampleExponential(arrival_rng, 1.0 / mean_stay);
      continue;
    }
    t += gap;

    Job job;
    job.id = static_cast<JobId>(jobs.size());
    job.submit_time = t;
    job.short_job = shape_rng.Bernoulli(o.short_job_fraction);
    const std::size_t num_tasks = SampleTaskCount(
        shape_rng, job.short_job ? o.short_tasks_mean : o.long_tasks_mean);
    job.task_durations.reserve(num_tasks);
    for (std::size_t i = 0; i < num_tasks; ++i) {
      const double d =
          job.short_job
              ? queueing::SampleBoundedPareto(shape_rng, o.short_alpha,
                                              o.short_lo, o.short_hi)
              : queueing::SampleLogNormal(shape_rng, o.long_mu, o.long_sigma);
      job.task_durations.push_back(d);
    }
    job.constraints = synth.Synthesize();
    if (tenant_weight_sum > 0) {
      double pick = tenant_rng.NextDouble() * tenant_weight_sum;
      for (std::size_t t = 0; t < o.tenant_weights.size(); ++t) {
        pick -= o.tenant_weights[t];
        if (pick < 0 || t + 1 == o.tenant_weights.size()) {
          job.tenant = static_cast<std::uint16_t>(t);
          break;
        }
      }
    }
    if (job.task_durations.size() > 1) {
      if (!job.short_job && shape_rng.Bernoulli(o.spread_fraction)) {
        job.placement = PlacementPref::kSpread;
      } else if (job.short_job && shape_rng.Bernoulli(o.colocate_fraction)) {
        job.placement = PlacementPref::kColocate;
      }
    }
    if (tag_packing && job.task_durations.size() > 1) {
      // One uniform draw splits [0, gang) | [gang, gang+malleable) | rest,
      // so a job is gang XOR malleable, never both.
      const double u = packing_rng.NextDouble();
      if (u < o.gang_fraction) {
        job.gang = true;
      } else if (u < o.gang_fraction + o.malleable_fraction) {
        job.malleable = true;
        const auto floor_width = static_cast<std::uint16_t>(std::max<double>(
            1.0, std::round(o.malleable_min_frac *
                            static_cast<double>(job.task_durations.size()))));
        job.min_parallel = floor_width;
      }
    }
    jobs.push_back(std::move(job));
  }

  const double cutoff = ComputeShortJobCutoff(jobs, o.short_job_fraction);
  Trace trace(name, std::move(jobs));
  trace.set_short_cutoff(cutoff);
  return trace;
}

// Demand skew is kept moderate in every profile so that no constrained
// machine subpool is *permanently* oversubscribed — the paper's constrained
// jobs see ~2x slowdowns (Table II), i.e. transient burst contention, not
// unbounded queue growth. Long-job duration parameters are likewise sized so
// the long plane drains between bursts.

GeneratorOptions GoogleProfile() {
  GeneratorOptions o;
  o.num_workers = 15000;
  o.short_job_fraction = 0.902;  // Table III
  // Google has the most diverse constraint mix (paper §VI-A) and the widest
  // burst range.
  o.synth.constrained_fraction = 0.51;
  o.synth.demand_skew = 0.15;
  o.synth.value_correlation = 0.40;
  o.burst_factor = 10.0;
  o.burst_fraction = 0.06;
  o.short_alpha = 1.25;
  o.short_hi = 400.0;
  o.long_mu = 5.3;   // ~200 s median long task
  o.long_sigma = 0.5;
  o.long_tasks_mean = 20.0;
  return o;
}

GeneratorOptions YahooProfile() {
  GeneratorOptions o;
  o.num_workers = 5000;
  o.short_job_fraction = 0.9156;  // Table III
  o.synth.constrained_fraction = 0.49;
  o.synth.demand_skew = 0.15;
  o.synth.value_correlation = 0.40;
  o.burst_factor = 8.0;
  o.burst_fraction = 0.10;
  o.short_alpha = 1.35;
  o.short_hi = 250.0;
  o.short_tasks_mean = 6.0;
  o.long_mu = 5.2;
  o.long_sigma = 0.5;
  o.long_tasks_mean = 18.0;
  return o;
}

GeneratorOptions ClouderaProfile() {
  GeneratorOptions o;
  o.num_workers = 15000;
  o.short_job_fraction = 0.95;  // Table III
  o.synth.constrained_fraction = 0.51;
  o.synth.demand_skew = 0.18;
  o.synth.value_correlation = 0.40;
  o.burst_factor = 10.0;
  o.burst_fraction = 0.08;
  o.short_alpha = 1.3;
  o.short_hi = 300.0;
  o.short_tasks_mean = 7.0;
  o.long_mu = 5.3;
  o.long_sigma = 0.5;
  o.long_tasks_mean = 22.0;
  return o;
}

const GeneratorOptions* FindProfileByName(const std::string& name) {
  static const GeneratorOptions kGoogle = GoogleProfile();
  static const GeneratorOptions kYahoo = YahooProfile();
  static const GeneratorOptions kCloudera = ClouderaProfile();
  if (name == "google") return &kGoogle;
  if (name == "yahoo") return &kYahoo;
  if (name == "cloudera") return &kCloudera;
  return nullptr;
}

GeneratorOptions ProfileByName(const std::string& name) {
  const GeneratorOptions* profile = FindProfileByName(name);
  PHOENIX_CHECK_MSG(profile != nullptr,
                    "unknown trace profile (google|yahoo|cloudera)");
  return *profile;
}

// The diurnal / flash-crowd parameters are the shapes the elasticity bench
// has always swept (bench_ext_elasticity), promoted here so every bench and
// test shapes load identically. -1 marks "keep the profile's own value".

const LoadShapePreset* FindShapeByName(const std::string& name) {
  static constexpr LoadShapePreset kShapes[] = {
      {"steady", 1.0, 0.0, -1.0},
      {"diurnal", 2.5, 0.50, 600.0},
      {"flash-crowd", 4.0, 0.15, 60.0},
  };
  for (const LoadShapePreset& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

LoadShapePreset ShapeByName(const std::string& name) {
  const LoadShapePreset* shape = FindShapeByName(name);
  PHOENIX_CHECK_MSG(shape != nullptr,
                    "unknown load shape (steady|diurnal|flash-crowd)");
  return *shape;
}

void ApplyLoadShape(const LoadShapePreset& shape, GeneratorOptions& options) {
  if (shape.burst_factor >= 0) options.burst_factor = shape.burst_factor;
  if (shape.burst_fraction >= 0) options.burst_fraction = shape.burst_fraction;
  if (shape.burst_duration_mean >= 0) {
    options.burst_duration_mean = shape.burst_duration_mean;
  }
}

namespace {
Trace GenerateWithProfile(GeneratorOptions o, const std::string& name,
                          std::size_t num_jobs, std::size_t num_workers,
                          double target_load, std::uint64_t seed) {
  o.num_jobs = num_jobs;
  o.num_workers = num_workers;
  o.target_load = target_load;
  o.seed = seed;
  return GenerateTrace(name, o);
}
}  // namespace

Trace GenerateGoogleTrace(std::size_t num_jobs, std::size_t num_workers,
                          double target_load, std::uint64_t seed) {
  return GenerateWithProfile(GoogleProfile(), "google", num_jobs, num_workers,
                             target_load, seed);
}

Trace GenerateYahooTrace(std::size_t num_jobs, std::size_t num_workers,
                         double target_load, std::uint64_t seed) {
  return GenerateWithProfile(YahooProfile(), "yahoo", num_jobs, num_workers,
                             target_load, seed);
}

Trace GenerateClouderaTrace(std::size_t num_jobs, std::size_t num_workers,
                            double target_load, std::uint64_t seed) {
  return GenerateWithProfile(ClouderaProfile(), "cloudera", num_jobs,
                             num_workers, target_load, seed);
}

}  // namespace phoenix::trace

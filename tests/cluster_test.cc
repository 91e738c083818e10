// Unit tests for the cluster model: attributes, constraints, matching index,
// sampling and fleet generation.
#include <set>

#include <gtest/gtest.h>

#include "cluster/builder.h"
#include "cluster/cluster.h"

namespace phoenix::cluster {
namespace {

Machine MakeMachine(MachineId id) {
  Machine m;
  m.id = id;
  m.Set(Attr::kArch, 0);
  m.Set(Attr::kNumCores, 8);
  m.Set(Attr::kEthernetSpeed, 10);
  m.Set(Attr::kMaxDisks, 4);
  m.Set(Attr::kMinDisks, 4);
  m.Set(Attr::kKernelVersion, 3);
  m.Set(Attr::kPlatformFamily, 1);
  m.Set(Attr::kCpuClock, 28);
  m.Set(Attr::kMinMemory, 64);
  return m;
}

// ---------------------------------------------------------------- Attributes

TEST(Attributes, CatalogIsConsistent) {
  const auto& catalog = AttrCatalog();
  for (std::size_t a = 0; a < kNumAttrs; ++a) {
    EXPECT_EQ(static_cast<std::size_t>(catalog[a].attr), a);
    EXPECT_GE(catalog[a].num_values, 2u);
    EXPECT_LE(catalog[a].num_values, 8u);
    double total = 0;
    for (std::size_t v = 0; v < catalog[a].num_values; ++v) {
      EXPECT_GT(catalog[a].machine_weights[v], 0.0);
      total += catalog[a].machine_weights[v];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Attributes, DemandSharesMatchTableTwoOrdering) {
  const auto& shares = AttrDemandShares();
  // Table II: ISA dominates (80.64 %), then cores (18.28), then disks (8.57).
  EXPECT_GT(shares[static_cast<std::size_t>(Attr::kArch)],
            shares[static_cast<std::size_t>(Attr::kNumCores)]);
  EXPECT_GT(shares[static_cast<std::size_t>(Attr::kNumCores)],
            shares[static_cast<std::size_t>(Attr::kMaxDisks)]);
  EXPECT_DOUBLE_EQ(shares[static_cast<std::size_t>(Attr::kArch)], 80.64);
}

TEST(Attributes, CrvDimMappingCoversAllDims) {
  std::set<CrvDim> seen;
  for (std::size_t a = 0; a < kNumAttrs; ++a) {
    seen.insert(AttrToCrvDim(static_cast<Attr>(a)));
  }
  EXPECT_EQ(seen.size(), kNumCrvDims);
}

TEST(Attributes, CrvDimMappingMatchesPaperVector) {
  EXPECT_EQ(AttrToCrvDim(Attr::kArch), CrvDim::kCpu);
  EXPECT_EQ(AttrToCrvDim(Attr::kNumCores), CrvDim::kCpu);
  EXPECT_EQ(AttrToCrvDim(Attr::kMinMemory), CrvDim::kMem);
  EXPECT_EQ(AttrToCrvDim(Attr::kMaxDisks), CrvDim::kDisk);
  EXPECT_EQ(AttrToCrvDim(Attr::kMinDisks), CrvDim::kDisk);
  EXPECT_EQ(AttrToCrvDim(Attr::kKernelVersion), CrvDim::kOs);
  EXPECT_EQ(AttrToCrvDim(Attr::kPlatformFamily), CrvDim::kOs);
  EXPECT_EQ(AttrToCrvDim(Attr::kCpuClock), CrvDim::kClock);
  EXPECT_EQ(AttrToCrvDim(Attr::kEthernetSpeed), CrvDim::kNet);
}

TEST(Attributes, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (std::size_t a = 0; a < kNumAttrs; ++a) {
    names.insert(AttrName(static_cast<Attr>(a)));
  }
  EXPECT_EQ(names.size(), kNumAttrs);
}

// ---------------------------------------------------------------- Constraint

TEST(Constraint, OperatorSemantics) {
  Constraint lt{Attr::kNumCores, ConstraintOp::kLess, 8, true};
  EXPECT_TRUE(lt.Satisfies(4));
  EXPECT_FALSE(lt.Satisfies(8));
  Constraint gt{Attr::kNumCores, ConstraintOp::kGreater, 8, true};
  EXPECT_TRUE(gt.Satisfies(16));
  EXPECT_FALSE(gt.Satisfies(8));
  Constraint eq{Attr::kNumCores, ConstraintOp::kEqual, 8, true};
  EXPECT_TRUE(eq.Satisfies(8));
  EXPECT_FALSE(eq.Satisfies(16));
}

TEST(Constraint, ToStringIsReadable) {
  Constraint c{Attr::kKernelVersion, ConstraintOp::kGreater, 2, false};
  EXPECT_EQ(c.ToString(), "Kernel Version > 2 (soft)");
}

TEST(ConstraintSet, AddAndQuery) {
  ConstraintSet cs;
  EXPECT_TRUE(cs.empty());
  cs.Add({Attr::kArch, ConstraintOp::kEqual, 0, true});
  cs.Add({Attr::kNumCores, ConstraintOp::kGreater, 4, false});
  EXPECT_EQ(cs.size(), 2u);
  EXPECT_TRUE(cs.HasHard());
  EXPECT_TRUE(cs.HasSoft());
}

TEST(ConstraintSet, HardOnlyDropsSoft) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true},
                    {Attr::kNumCores, ConstraintOp::kGreater, 4, false}});
  const ConstraintSet hard = cs.HardOnly();
  ASSERT_EQ(hard.size(), 1u);
  EXPECT_EQ(hard[0].attr, Attr::kArch);
}

TEST(ConstraintSet, WithoutConstraintRemovesByIndex) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true},
                    {Attr::kNumCores, ConstraintOp::kGreater, 4, false}});
  const ConstraintSet rest = cs.WithoutConstraint(0);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].attr, Attr::kNumCores);
}

TEST(ConstraintSetDeathTest, DuplicateAttributeAborts) {
  ConstraintSet cs;
  cs.Add({Attr::kArch, ConstraintOp::kEqual, 0, true});
  EXPECT_DEATH(cs.Add({Attr::kArch, ConstraintOp::kEqual, 1, true}),
               "duplicate");
}

TEST(ConstraintSetDeathTest, TooManyConstraintsAborts) {
  ConstraintSet cs;
  for (std::size_t a = 0; a < kMaxConstraintsPerTask; ++a) {
    cs.Add({static_cast<Attr>(a), ConstraintOp::kEqual, 1, true});
  }
  EXPECT_DEATH(
      cs.Add({static_cast<Attr>(kMaxConstraintsPerTask), ConstraintOp::kEqual,
              1, true}),
      "at most 6");
}

// ---------------------------------------------------------------- Machine

TEST(Machine, SatisfiesSingleAndSet) {
  const Machine m = MakeMachine(0);
  EXPECT_TRUE(m.Satisfies(Constraint{Attr::kArch, ConstraintOp::kEqual, 0, true}));
  EXPECT_FALSE(m.Satisfies(Constraint{Attr::kArch, ConstraintOp::kEqual, 1, true}));
  ConstraintSet cs({{Attr::kNumCores, ConstraintOp::kGreater, 4, true},
                    {Attr::kMinMemory, ConstraintOp::kGreater, 32, true}});
  EXPECT_TRUE(m.Satisfies(cs));
  cs.Add({Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, true});
  EXPECT_FALSE(m.Satisfies(cs));
}

TEST(Machine, EmptySetAlwaysSatisfied) {
  EXPECT_TRUE(MakeMachine(0).Satisfies(ConstraintSet()));
}

// ---------------------------------------------------------------- Cluster

class ClusterIndexTest : public ::testing::Test {
 protected:
  ClusterIndexTest() : cluster_(BuildFleet({.num_machines = 500, .seed = 7})) {}
  Cluster cluster_;
};

TEST_F(ClusterIndexTest, PredicateIndexMatchesBruteForce) {
  for (const Constraint c :
       {Constraint{Attr::kArch, ConstraintOp::kEqual, 0, true},
        Constraint{Attr::kNumCores, ConstraintOp::kGreater, 8, true},
        Constraint{Attr::kCpuClock, ConstraintOp::kLess, 28, true},
        Constraint{Attr::kMinMemory, ConstraintOp::kGreater, 64, true}}) {
    const util::IndexedBitset& bits = cluster_.Satisfying(c);
    std::size_t brute = 0;
    for (const Machine& m : cluster_.machines()) {
      const bool sat = m.Satisfies(c);
      brute += sat;
      EXPECT_EQ(bits.Test(m.id), sat);
    }
    EXPECT_EQ(bits.Count(), brute);
  }
}

TEST_F(ClusterIndexTest, SetIndexIsIntersection) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true},
                    {Attr::kNumCores, ConstraintOp::kGreater, 4, true}});
  const util::IndexedBitset& bits = cluster_.Satisfying(cs);
  for (const Machine& m : cluster_.machines()) {
    EXPECT_EQ(bits.Test(m.id), m.Satisfies(cs));
  }
}

TEST_F(ClusterIndexTest, EmptyConstraintSetMatchesEverything) {
  EXPECT_EQ(cluster_.CountSatisfying(ConstraintSet()), cluster_.size());
}

TEST_F(ClusterIndexTest, MemoizationReturnsSameObject) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true}});
  const util::IndexedBitset* first = &cluster_.Satisfying(cs);
  const util::IndexedBitset* second = &cluster_.Satisfying(cs);
  EXPECT_EQ(first, second);
}

TEST_F(ClusterIndexTest, MemoizationIsOrderInsensitive) {
  ConstraintSet ab({{Attr::kArch, ConstraintOp::kEqual, 0, true},
                    {Attr::kNumCores, ConstraintOp::kGreater, 4, true}});
  ConstraintSet ba({{Attr::kNumCores, ConstraintOp::kGreater, 4, true},
                    {Attr::kArch, ConstraintOp::kEqual, 0, true}});
  EXPECT_EQ(&cluster_.Satisfying(ab), &cluster_.Satisfying(ba));
}

TEST_F(ClusterIndexTest, UnsatisfiablePredicateYieldsEmptyPool) {
  // Domain max for cores is 32; "> 32" matches nothing.
  ConstraintSet cs({{Attr::kNumCores, ConstraintOp::kGreater, 32, true}});
  EXPECT_EQ(cluster_.CountSatisfying(cs), 0u);
  util::Rng rng(1);
  EXPECT_EQ(cluster_.SampleSatisfying(cs, rng), kInvalidMachine);
  EXPECT_TRUE(cluster_.SampleSatisfying(cs, 5, rng).empty());
  EXPECT_TRUE(cluster_.SampleDistinctSatisfying(cs, 5, rng).empty());
}

TEST_F(ClusterIndexTest, SampleSatisfyingReturnsMatchingMachines) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 1, true}});
  util::Rng rng(2);
  for (const auto id : cluster_.SampleSatisfying(cs, 100, rng)) {
    EXPECT_TRUE(cluster_.machine(id).Satisfies(cs));
  }
}

TEST_F(ClusterIndexTest, SampleDistinctHasNoDuplicates) {
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 0, true}});
  util::Rng rng(3);
  const auto ids = cluster_.SampleDistinctSatisfying(cs, 50, rng);
  EXPECT_EQ(ids.size(), 50u);
  std::set<MachineId> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
  for (const auto id : ids) EXPECT_TRUE(cluster_.machine(id).Satisfies(cs));
}

TEST_F(ClusterIndexTest, SampleDistinctReturnsWholePoolWhenSmall) {
  ConstraintSet cs({{Attr::kEthernetSpeed, ConstraintOp::kGreater, 10, true}});
  const std::size_t pool = cluster_.CountSatisfying(cs);
  ASSERT_GT(pool, 0u);
  util::Rng rng(4);
  const auto ids = cluster_.SampleDistinctSatisfying(cs, pool + 100, rng);
  EXPECT_EQ(ids.size(), pool);
}

TEST(ClusterDeathTest, EmptyFleetAborts) {
  EXPECT_DEATH(Cluster(std::vector<Machine>{}), "at least one machine");
}

TEST(ClusterDeathTest, NonDenseIdsAbort) {
  std::vector<Machine> ms = {MakeMachine(0), MakeMachine(5)};
  EXPECT_DEATH(Cluster(std::move(ms)), "dense");
}

// ---------------------------------------------------------------- Builder

TEST(Builder, DeterministicForSeed) {
  const auto a = BuildFleet({.num_machines = 100, .seed = 9});
  const auto b = BuildFleet({.num_machines = 100, .seed = 9});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].attrs, b[i].attrs);
}

TEST(Builder, DifferentSeedsDiffer) {
  const auto a = BuildFleet({.num_machines = 100, .seed = 1});
  const auto b = BuildFleet({.num_machines = 100, .seed = 2});
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) same += a[i].attrs == b[i].attrs;
  EXPECT_LT(same, a.size());
}

TEST(Builder, ZeroHeterogeneityIsUniformFleet) {
  const auto fleet =
      BuildFleet({.num_machines = 50, .seed = 3, .heterogeneity = 0.0});
  for (const auto& m : fleet) EXPECT_EQ(m.attrs, fleet[0].attrs);
}

TEST(Builder, ValuesComeFromDomains) {
  const auto fleet = BuildFleet({.num_machines = 200, .seed = 4});
  const auto& catalog = AttrCatalog();
  for (const auto& m : fleet) {
    for (std::size_t a = 0; a < kNumAttrs; ++a) {
      bool in_domain = false;
      for (std::size_t v = 0; v < catalog[a].num_values; ++v) {
        in_domain = in_domain || catalog[a].values[v] == m.attrs[a];
      }
      EXPECT_TRUE(in_domain) << "attr " << a << " value " << m.attrs[a];
    }
  }
}

TEST(Builder, DiskAttributesAreConsistent) {
  const auto fleet = BuildFleet({.num_machines = 200, .seed = 5});
  for (const auto& m : fleet) {
    EXPECT_EQ(m.Get(Attr::kMinDisks), m.Get(Attr::kMaxDisks));
  }
}

TEST(Builder, ArchMixIsSkewedTowardX86) {
  const auto fleet = BuildFleet({.num_machines = 2000, .seed = 6});
  std::size_t x86 = 0;
  for (const auto& m : fleet) x86 += m.Get(Attr::kArch) == 0;
  const double frac = static_cast<double>(x86) / fleet.size();
  EXPECT_NEAR(frac, 0.72, 0.05);
}

// Supply declines as constraint sets grow (the Fig 6 premise).
TEST(Builder, SupplyDeclinesWithConstraintCount) {
  const Cluster cluster = BuildCluster({.num_machines = 2000, .seed = 8});
  ConstraintSet cs;
  std::size_t prev = cluster.size();
  cs.Add({Attr::kArch, ConstraintOp::kEqual, 0, true});
  std::size_t cur = cluster.CountSatisfying(cs);
  EXPECT_LT(cur, prev);
  prev = cur;
  cs.Add({Attr::kNumCores, ConstraintOp::kGreater, 4, true});
  cur = cluster.CountSatisfying(cs);
  EXPECT_LE(cur, prev);
  prev = cur;
  cs.Add({Attr::kKernelVersion, ConstraintOp::kGreater, 2, true});
  cur = cluster.CountSatisfying(cs);
  EXPECT_LE(cur, prev);
}

// Property sweep: sampling distribution over a constrained pool is uniform.
class ClusterSamplingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterSamplingTest, SamplingIsUnbiasedOverPool) {
  const Cluster cluster = BuildCluster({.num_machines = 300, .seed = 11});
  ConstraintSet cs({{Attr::kArch, ConstraintOp::kEqual, 1, true}});
  const std::size_t pool = cluster.CountSatisfying(cs);
  ASSERT_GT(pool, 10u);
  util::Rng rng(GetParam());
  std::map<MachineId, int> counts;
  const int n = 20000;
  for (const auto id : cluster.SampleSatisfying(cs, n, rng)) ++counts[id];
  // Every sampled machine satisfies; frequencies are near-uniform.
  const double expect = static_cast<double>(n) / static_cast<double>(pool);
  for (const auto& [id, count] : counts) {
    EXPECT_TRUE(cluster.machine(id).Satisfies(cs));
    EXPECT_NEAR(count, expect, expect * 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSamplingTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace phoenix::cluster

#include "sched/heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "etcgen/suite.hpp"
#include "sched/batch_engine.hpp"
#include "sched/makespan.hpp"

namespace {

using hetero::DimensionError;
using hetero::ValueError;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;
namespace sc = hetero::sched;

constexpr double kInf = std::numeric_limits<double>::infinity();

EtcMatrix simple() {
  // Two machines, machine 2 twice as fast for everything.
  return EtcMatrix(Matrix{{4, 2}, {8, 4}, {2, 1}});
}

TEST(Makespan, OneOfEach) {
  EXPECT_EQ(sc::one_of_each(simple()),
            (sc::TaskList{0, 1, 2}));
}

TEST(Makespan, LoadsAndMakespan) {
  const sc::TaskList tasks{0, 1, 2};
  const sc::Assignment a{0, 1, 0};
  const auto loads = sc::machine_loads(simple(), tasks, a);
  EXPECT_DOUBLE_EQ(loads[0], 6.0);
  EXPECT_DOUBLE_EQ(loads[1], 4.0);
  EXPECT_DOUBLE_EQ(sc::makespan(simple(), tasks, a), 6.0);
}

TEST(Makespan, ValidatesSizesAndRanges) {
  const sc::TaskList tasks{0, 1};
  EXPECT_THROW(sc::machine_loads(simple(), tasks, sc::Assignment{0}),
               DimensionError);
  EXPECT_THROW(sc::machine_loads(simple(), tasks, sc::Assignment{0, 9}),
               DimensionError);
  EXPECT_THROW(sc::machine_loads(simple(), sc::TaskList{7}, sc::Assignment{0}),
               DimensionError);
}

TEST(Makespan, InfiniteWhenAssignedToIncapableMachine) {
  EtcMatrix etc(Matrix{{1, kInf}, {1, 1}});
  const sc::TaskList tasks{0};
  EXPECT_TRUE(std::isinf(sc::makespan(etc, tasks, sc::Assignment{1})));
}

TEST(Makespan, LowerBoundHolds) {
  const sc::TaskList tasks = sc::one_of_each(simple());
  const double lb = sc::makespan_lower_bound(simple(), tasks);
  for (const auto& h : sc::standard_heuristics()) {
    const auto a = h.map(simple(), tasks);
    EXPECT_GE(sc::makespan(simple(), tasks, a) + 1e-12, lb) << h.name;
  }
}

TEST(Heuristics, MetPicksFastestMachine) {
  const sc::TaskList tasks{0, 1, 2};
  const auto a = sc::map_met(simple(), tasks);
  EXPECT_EQ(a, (sc::Assignment{1, 1, 1}));  // machine 2 always fastest
}

TEST(Heuristics, MctBalancesLoad) {
  // MCT on task order 0,1,2: t0 -> m2 (2 < 4); t1 -> m2 (2+4=6) vs m1 (8):
  // m2; t2 -> m1 (2) vs m2 (7): m1.
  const sc::TaskList tasks{0, 1, 2};
  const auto a = sc::map_mct(simple(), tasks);
  EXPECT_EQ(a, (sc::Assignment{1, 1, 0}));
}

TEST(Heuristics, OlbIgnoresSpeed) {
  const sc::TaskList tasks{0, 1};
  const auto a = sc::map_olb(simple(), tasks);
  // First task to m1 (both idle, lowest index), second to m2.
  EXPECT_EQ(a, (sc::Assignment{0, 1}));
}

TEST(Heuristics, MinMinKnownExample) {
  // Classic example where Min-Min beats MCT's arrival-order greed.
  EtcMatrix etc(Matrix{{10, 2}, {1, 9}});
  const sc::TaskList tasks{0, 1};
  const auto a = sc::map_min_min(etc, tasks);
  EXPECT_EQ(a, (sc::Assignment{1, 0}));
  EXPECT_DOUBLE_EQ(sc::makespan(etc, tasks, a), 2.0);
}

TEST(Heuristics, MaxMinMapsLongTaskFirst) {
  EtcMatrix etc(Matrix{{100, 110}, {1, 2}, {1, 2}});
  const sc::TaskList tasks{0, 1, 2};
  const auto a = sc::map_max_min(etc, tasks);
  // Long task 0 claims m1 first; the short tasks then avoid queueing on it.
  EXPECT_EQ(a[0], 0u);
  EXPECT_DOUBLE_EQ(sc::makespan(etc, tasks, a), 100.0);
}

TEST(Heuristics, SufferageClassicCase) {
  // Task 0 suffers little (4 vs 5); task 1 suffers a lot (1 vs 20). With
  // both competing for machine 1, sufferage gives it to task 1 and task 0
  // falls back to machine 2.
  EtcMatrix etc(Matrix{{5, 4}, {1, 20}});
  const sc::TaskList tasks{0, 1};
  const auto a = sc::map_sufferage(etc, tasks);
  EXPECT_EQ(a[1], 0u);
  EXPECT_EQ(a[0], 1u);
}

TEST(Heuristics, DuplexNeverWorseThanEither) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(21);
  hetero::etcgen::RangeBasedOptions opts;
  opts.tasks = 30;
  opts.machines = 6;
  for (int rep = 0; rep < 5; ++rep) {
    const auto etc = hetero::etcgen::generate_range_based(opts, rng);
    const auto tasks = sc::one_of_each(etc);
    const double dup = sc::makespan(etc, tasks, sc::map_duplex(etc, tasks));
    const double mn = sc::makespan(etc, tasks, sc::map_min_min(etc, tasks));
    const double mx = sc::makespan(etc, tasks, sc::map_max_min(etc, tasks));
    EXPECT_LE(dup, std::min(mn, mx) + 1e-9);
  }
}

TEST(Heuristics, AllRespectCannotRunEntries) {
  EtcMatrix etc(Matrix{{1, kInf}, {kInf, 1}, {2, 2}});
  const sc::TaskList tasks{0, 1, 2};
  for (const auto& h : sc::standard_heuristics()) {
    const auto a = h.map(etc, tasks);
    EXPECT_FALSE(std::isinf(sc::makespan(etc, tasks, a))) << h.name;
    EXPECT_EQ(a[0], 0u) << h.name;
    EXPECT_EQ(a[1], 1u) << h.name;
  }
}

TEST(Heuristics, RandomIsValid) {
  EtcMatrix etc(Matrix{{1, kInf}, {kInf, 1}});
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(5);
  for (int rep = 0; rep < 20; ++rep) {
    const auto a = sc::map_random(etc, {0, 1}, rng);
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(a[1], 1u);
  }
}

TEST(Heuristics, RepeatedTaskInstances) {
  // Four instances of task 0 on two equal machines: any load-aware
  // heuristic must split 2/2.
  EtcMatrix etc(Matrix{{3, 3}, {1, 1}});
  const sc::TaskList tasks{0, 0, 0, 0};
  for (const auto& h : {sc::Heuristic{"MCT", sc::map_mct},
                        sc::Heuristic{"Min-Min", sc::map_min_min},
                        sc::Heuristic{"Sufferage", sc::map_sufferage}}) {
    const auto a = h.map(etc, tasks);
    EXPECT_DOUBLE_EQ(sc::makespan(etc, tasks, a), 6.0) << h.name;
  }
}

TEST(Heuristics, EmptyTaskListYieldsEmptyAssignment) {
  for (const auto& h : sc::standard_heuristics())
    EXPECT_TRUE(h.map(simple(), {}).empty()) << h.name;
}

TEST(Heuristics, RegistryNamesAndOrder) {
  const auto& hs = sc::standard_heuristics();
  ASSERT_EQ(hs.size(), 7u);
  EXPECT_EQ(hs[0].name, "OLB");
  EXPECT_EQ(hs[3].name, "Min-Min");
  EXPECT_EQ(hs[6].name, "Duplex");
}

// ---------------------------------------------------------------------------
// Incremental-engine equivalence (ctest label: sched_equiv). The fast batch
// heuristics run on the cached BatchEngine; they must produce bit-identical
// assignments to the O(T^2 M) references — tie-breaking included.

struct FastRefPair {
  const char* name;
  sc::Assignment (*fast)(const EtcMatrix&, const sc::TaskList&);
  sc::Assignment (*reference)(const EtcMatrix&, const sc::TaskList&);
};

const FastRefPair kBatchPairs[] = {
    {"Min-Min", sc::map_min_min, sc::map_min_min_reference},
    {"Max-Min", sc::map_max_min, sc::map_max_min_reference},
    {"Sufferage", sc::map_sufferage, sc::map_sufferage_reference},
};

TEST(BatchEquivalence, MatchesReferenceAcrossBraunSuite) {
  hetero::etcgen::BraunSuiteOptions opts;
  opts.tasks = 128;
  opts.machines = 16;
  opts.seed = 17;
  for (const auto& c : hetero::etcgen::braun_suite(opts)) {
    const auto tasks = sc::one_of_each(c.etc);
    for (const auto& p : kBatchPairs)
      EXPECT_EQ(p.fast(c.etc, tasks), p.reference(c.etc, tasks))
          << p.name << " diverged on " << c.name;
  }
}

TEST(BatchEquivalence, MatchesReferenceAtBraunScale) {
  // One full-size 512x16 instance per heuristic (the benchmark shape).
  hetero::etcgen::BraunSuiteOptions opts;
  opts.seed = 23;
  const auto suite = hetero::etcgen::braun_suite(opts);
  const auto& c = suite.front();  // hi-hi consistent
  const auto tasks = sc::one_of_each(c.etc);
  for (const auto& p : kBatchPairs)
    EXPECT_EQ(p.fast(c.etc, tasks), p.reference(c.etc, tasks)) << p.name;
}

TEST(BatchEquivalence, TieStressOnSmallIntegerEtc) {
  // Small-integer entries force massive completion-time ties; any deviation
  // from the reference's first-minimum / first-maximum scan order shows up
  // as a different (still optimal-looking) assignment.
  Matrix m(12, 5);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = static_cast<double>((i + 2 * j) % 3 + 1);
  EtcMatrix etc(m);
  sc::TaskList tasks;
  for (std::size_t rep = 0; rep < 4; ++rep)
    for (std::size_t t = 0; t < etc.task_count(); ++t) tasks.push_back(t);
  for (const auto& p : kBatchPairs)
    EXPECT_EQ(p.fast(etc, tasks), p.reference(etc, tasks)) << p.name;
}

TEST(BatchEquivalence, MatchesReferenceWithInfiniteEntries) {
  // Scattered cannot-run entries: the affected-set rescan must skip them
  // exactly like the reference scan, including sufferage's "no second
  // machine" convention.
  Matrix m(8, 4);
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = static_cast<double>(1 + ((3 * i + j) % 7));
  m(0, 1) = kInf;
  m(0, 2) = kInf;
  m(0, 3) = kInf;  // task 0 runs only on machine 0
  m(3, 0) = kInf;
  m(5, 2) = kInf;
  m(5, 3) = kInf;
  EtcMatrix etc(m);
  const auto tasks = sc::one_of_each(etc);
  for (const auto& p : kBatchPairs) {
    const auto a = p.fast(etc, tasks);
    EXPECT_EQ(a, p.reference(etc, tasks)) << p.name;
    EXPECT_TRUE(std::isfinite(sc::makespan(etc, tasks, a))) << p.name;
  }
}

TEST(BatchEquivalence, RepeatedInstancesAndDuplexAgree) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(41);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 10;
  gopts.machines = 4;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  sc::TaskList tasks;
  for (std::size_t k = 0; k < 60; ++k) tasks.push_back(k % etc.task_count());
  for (const auto& p : kBatchPairs)
    EXPECT_EQ(p.fast(etc, tasks), p.reference(etc, tasks)) << p.name;
}

// ---------------------------------------------------------------------------
// BatchEngine epoch interface: the per-type cache and its invalidation. A
// seeded script of add_slot / remove_slot / begin_epoch / plan must commit
// exactly what a cold O(U^2 M) replan of the registered slots, in
// registration order, commits against the same ready vector.

using Commits = std::vector<std::pair<std::size_t, std::size_t>>;

Commits cold_replan(const EtcMatrix& etc, sc::BatchPolicy policy,
                    const std::vector<std::pair<std::size_t, std::size_t>>&
                        slots,  // (slot, type) in registration order
                    std::vector<double> ready) {
  Commits out;
  std::vector<char> planned(slots.size(), 0);
  for (std::size_t round = 0; round < slots.size(); ++round) {
    double best_priority = -kInf;
    std::size_t chosen = 0, chosen_j = 0;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (planned[k]) continue;
      const std::size_t t = slots[k].second;
      double best = kInf, second = kInf;
      std::size_t best_j = 0;
      for (std::size_t j = 0; j < etc.machine_count(); ++j) {
        const double ct = ready[j] + etc(t, j);
        if (ct < best) {
          second = best;
          best = ct;
          best_j = j;
        } else if (ct < second) {
          second = ct;
        }
      }
      double p = best;
      if (policy == sc::BatchPolicy::min_min) p = -best;
      if (policy == sc::BatchPolicy::sufferage)
        p = std::isinf(second) ? kInf : second - best;
      if (p > best_priority) {
        best_priority = p;
        chosen = k;
        chosen_j = best_j;
      }
    }
    planned[chosen] = 1;
    out.emplace_back(slots[chosen].first, chosen_j);
    ready[chosen_j] += etc(slots[chosen].second, chosen_j);
  }
  return out;
}

// Small-integer entries (massive completion-time ties) with scattered
// cannot-run entries; every row keeps at least one capable machine.
EtcMatrix tie_etc(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = static_cast<double>(1 + hetero::etcgen::uniform_index(rng, 4));
      if (j > 0 && hetero::etcgen::uniform_index(rng, 6) == 0) m(i, j) = kInf;
    }
  }
  return EtcMatrix(m);
}

struct EpochScriptStats {
  std::size_t plans = 0, rebuilds = 0, type_returns = 0;
};

// Runs one seeded script; `distinct` gives slot s the fixed type s (every
// group a singleton), otherwise each registration draws one of the types.
EpochScriptStats run_epoch_script(const EtcMatrix& etc,
                                  sc::BatchPolicy policy, bool distinct,
                                  std::uint64_t seed) {
  namespace eg = hetero::etcgen;
  eg::Rng rng = eg::make_rng(seed);
  constexpr std::size_t kSlots = 24;
  const std::size_t types = etc.task_count();
  const std::size_t machines = etc.machine_count();
  sc::BatchEngine engine(etc, policy);
  std::vector<std::pair<std::size_t, std::size_t>> registered;
  std::vector<double> ready(machines, 0.0);
  // A type's active count dropped to 0 after it was planned; it counts as
  // returned when a later plan covers it again.
  std::vector<char> planned_type(types, 0), dropped(types, 0);
  EpochScriptStats stats;

  const auto count_of = [&](std::size_t t) {
    return std::count_if(registered.begin(), registered.end(),
                         [t](const auto& r) { return r.second == t; });
  };

  for (int op = 0; op < 600; ++op) {
    const std::size_t roll = eg::uniform_index(rng, 20);
    if (roll < 8 && registered.size() < kSlots) {
      std::size_t slot = eg::uniform_index(rng, kSlots);
      while (std::any_of(registered.begin(), registered.end(),
                         [slot](const auto& r) { return r.first == slot; }))
        slot = (slot + 1) % kSlots;
      const std::size_t t = distinct ? slot : eg::uniform_index(rng, types);
      engine.add_slot(slot, t);
      registered.emplace_back(slot, t);
    } else if (roll < 13 && !registered.empty()) {
      const std::size_t at = eg::uniform_index(rng, registered.size());
      const std::size_t t = registered[at].second;
      engine.remove_slot(registered[at].first);
      registered.erase(registered.begin() + static_cast<std::ptrdiff_t>(at));
      if (count_of(t) == 0 && planned_type[t]) dropped[t] = 1;
    } else if (!registered.empty()) {
      // Mostly non-decreasing ready times with small-integer steps (ties);
      // now and then a decrease forces the full rebuild.
      if (eg::uniform_index(rng, 12) == 0) {
        ready[eg::uniform_index(rng, machines)] -= 1.0;
        ++stats.rebuilds;
      }
      for (double& r : ready)
        if (eg::uniform_index(rng, 2) == 0)
          r += static_cast<double>(eg::uniform_index(rng, 4));
      engine.begin_epoch(ready);
      Commits got;
      engine.plan([&got](std::size_t s, std::size_t j) {
        got.emplace_back(s, j);
      });
      EXPECT_EQ(got, cold_replan(etc, policy, registered, ready))
          << "op " << op << " seed " << seed;
      if (eg::uniform_index(rng, 8) == 0) {
        // A repeated plan() in the same epoch starts from the same base.
        Commits again;
        engine.plan([&again](std::size_t s, std::size_t j) {
          again.emplace_back(s, j);
        });
        EXPECT_EQ(again, got) << "replan, op " << op;
      }
      ++stats.plans;
      for (const auto& r : registered) {
        if (dropped[r.second]) ++stats.type_returns;
        dropped[r.second] = 0;
        planned_type[r.second] = 1;
      }
    }
    EXPECT_EQ(engine.active_count(), registered.size());
  }
  return stats;
}

TEST(BatchEngineEpochs, MatchColdReplanUnderRandomEpochs) {
  const EtcMatrix typed = tie_etc(3, 5, 11);
  const EtcMatrix distinct = tie_etc(24, 5, 12);
  for (const sc::BatchPolicy policy :
       {sc::BatchPolicy::min_min, sc::BatchPolicy::max_min,
        sc::BatchPolicy::sufferage}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const EpochScriptStats t = run_epoch_script(typed, policy, false, seed);
      const EpochScriptStats d =
          run_epoch_script(distinct, policy, true, seed + 100);
      // The scripts must reach the paths they exist for.
      EXPECT_GT(t.plans, 50u);
      EXPECT_GT(d.plans, 50u);
      EXPECT_GT(t.rebuilds + d.rebuilds, 0u);
      EXPECT_GT(t.type_returns, 0u);
      EXPECT_GT(d.type_returns, 0u);
    }
  }
}

TEST(BatchEngineRegistry, RejectsDuplicateAndUnknownSlots) {
  const EtcMatrix etc = simple();
  sc::BatchEngine engine(etc, sc::BatchPolicy::min_min);
  engine.add_slot(3, 0);
  engine.add_slot(1, 2);
  // A second registration of an active slot would plan it twice.
  EXPECT_THROW(engine.add_slot(3, 1), ValueError);
  EXPECT_EQ(engine.active_count(), 2u);
  EXPECT_THROW(engine.remove_slot(2), ValueError);   // in range, unknown
  EXPECT_THROW(engine.remove_slot(99), ValueError);  // out of range
  EXPECT_THROW(engine.add_slot(4, 3), DimensionError);

  engine.begin_epoch({0.0, 0.0});
  Commits got;
  engine.plan([&got](std::size_t s, std::size_t j) { got.emplace_back(s, j); });
  EXPECT_EQ(got, (Commits{{1, 1}, {3, 1}}));

  engine.remove_slot(3);
  EXPECT_THROW(engine.remove_slot(3), ValueError);
  engine.add_slot(3, 1);  // a removed slot may register again
  EXPECT_EQ(engine.active_count(), 2u);
  // Type 1 has no cached decision until the next epoch starts.
  EXPECT_THROW(engine.plan([](std::size_t, std::size_t) {}), ValueError);
  engine.begin_epoch({0.0, 0.0});
  got.clear();
  engine.plan([&got](std::size_t s, std::size_t j) { got.emplace_back(s, j); });
  EXPECT_EQ(got, (Commits{{1, 1}, {3, 1}}));
}

// ---------------------------------------------------------------------------
// Guard regression: `best` used to be initialized to machine_count() and was
// indexed/written unguarded when a task could run nowhere. The helpers take a
// raw matrix because EtcMatrix construction rejects all-infinite rows.

TEST(HeuristicGuards, OlbThrowsWhenTaskRunsNowhere) {
  const Matrix raw{{1.0, 2.0}, {kInf, kInf}};
  const std::vector<double> load{0.0, 0.0};
  EXPECT_EQ(sc::olb_earliest_capable(raw, load, 0), 0u);
  EXPECT_THROW(sc::olb_earliest_capable(raw, load, 1), ValueError);
}

TEST(HeuristicGuards, MetThrowsWhenTaskRunsNowhere) {
  const Matrix raw{{3.0, 1.0}, {kInf, kInf}};
  EXPECT_EQ(sc::met_fastest_machine(raw, 0), 1u);
  EXPECT_THROW(sc::met_fastest_machine(raw, 1), ValueError);
}

TEST(HeuristicGuards, EtcMatrixRejectsAllInfiniteRowUpfront) {
  EXPECT_THROW(EtcMatrix(Matrix{{1.0, 2.0}, {kInf, kInf}}), ValueError);
}

TEST(Heuristics, MinMinNoWorseThanRandomOnAverage) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(33);
  hetero::etcgen::RangeBasedOptions opts;
  opts.tasks = 40;
  opts.machines = 8;
  double minmin = 0.0, rand = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto etc = hetero::etcgen::generate_range_based(opts, rng);
    const auto tasks = sc::one_of_each(etc);
    minmin += sc::makespan(etc, tasks, sc::map_min_min(etc, tasks));
    rand += sc::makespan(etc, tasks, sc::map_random(etc, tasks, rng));
  }
  EXPECT_LT(minmin, rand);
}

}  // namespace

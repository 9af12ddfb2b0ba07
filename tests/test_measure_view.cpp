// Streaming characterization equivalence tests: the delta-maintained
// MeasureView must match a cold recompute within its declared error budget
// after any warm update stream, and bit-identically immediately after any
// cold refresh; EtcEstimator must act as the inverse of the etcgen noise
// forward model. Runs under the `stream_equiv` ctest label (TSan in CI).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "core/etc_estimator.hpp"
#include "core/measure_view.hpp"
#include "etcgen/noise.hpp"
#include "etcgen/rng.hpp"
#include "etcgen/target_measures.hpp"

namespace {

using hetero::core::CellDelta;
using hetero::core::EtcEstimator;
using hetero::core::EtcEstimatorOptions;
using hetero::core::MeasureSet;
using hetero::core::MeasureView;
using hetero::core::MeasureViewOptions;
using hetero::linalg::Matrix;

Matrix random_ecs(std::size_t tasks, std::size_t machines,
                  std::uint64_t seed) {
  hetero::etcgen::Rng rng(seed);
  Matrix m(tasks, machines);
  for (std::size_t i = 0; i < tasks; ++i)
    for (std::size_t j = 0; j < machines; ++j)
      m(i, j) = hetero::etcgen::uniform(rng, 0.05, 4.0);
  return m;
}

std::vector<double> random_vector(std::size_t n, hetero::etcgen::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = hetero::etcgen::uniform(rng, 0.05, 4.0);
  return v;
}

void expect_bits_equal(const MeasureSet& a, const MeasureSet& b) {
  EXPECT_EQ(a.mph, b.mph);
  EXPECT_EQ(a.tdh, b.tdh);
  EXPECT_EQ(a.tma, b.tma);
}

void expect_close(const MeasureSet& a, const MeasureSet& b, double tol) {
  EXPECT_NEAR(a.mph, b.mph, tol);
  EXPECT_NEAR(a.tdh, b.tdh, tol);
  EXPECT_NEAR(a.tma, b.tma, tol);
}

TEST(MeasureView, WarmUpdatesMatchColdWithinBudget) {
  MeasureView view(random_ecs(24, 12, 101));
  hetero::etcgen::Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    const std::size_t i =
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 24.0)) % 24;
    const std::size_t j =
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 12.0)) % 12;
    view.set_entry(i, j, hetero::etcgen::uniform(rng, 0.05, 4.0));
    const MeasureSet cold =
        MeasureView::cold_measures(view.ecs(), view.options().sinkhorn);
    expect_close(view.current(), cold, view.options().error_budget);
  }
  EXPECT_EQ(view.stats().version, 200u);
  EXPECT_GT(view.stats().warm_updates, 0u);
}

TEST(MeasureView, MatchesRawMeasurePipeline) {
  const Matrix ecs = random_ecs(16, 8, 31);
  MeasureView view(ecs);
  const MeasureSet raw = hetero::etcgen::measure_set_raw(ecs);
  // Different Sinkhorn/SVD tolerances between the pipelines: agree to ~1e-6.
  expect_close(view.current(), raw, 1e-6);
}

TEST(MeasureView, BatchedEntriesMatchCold) {
  MeasureView view(random_ecs(12, 6, 5));
  hetero::etcgen::Rng rng(9);
  for (int round = 0; round < 20; ++round) {
    std::vector<CellDelta> deltas;
    for (int k = 0; k < 5; ++k)
      deltas.push_back(CellDelta{
          static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 12.0)) %
              12,
          static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 6.0)) % 6,
          hetero::etcgen::uniform(rng, 0.05, 4.0)});
    view.set_entries(deltas);
    const MeasureSet cold =
        MeasureView::cold_measures(view.ecs(), view.options().sinkhorn);
    expect_close(view.current(), cold, view.options().error_budget);
  }
}

TEST(MeasureView, StructuralDeltasMatchCold) {
  MeasureView view(random_ecs(6, 4, 17));
  hetero::etcgen::Rng rng(23);
  const auto check = [&] {
    const MeasureSet cold =
        MeasureView::cold_measures(view.ecs(), view.options().sinkhorn);
    expect_close(view.current(), cold, view.options().error_budget);
  };
  view.add_task(random_vector(view.machines(), rng));
  check();
  view.add_machine(random_vector(view.tasks(), rng));
  check();
  EXPECT_EQ(view.tasks(), 7u);
  EXPECT_EQ(view.machines(), 5u);
  view.remove_task(2);
  check();
  view.remove_machine(0);
  check();
  EXPECT_EQ(view.tasks(), 6u);
  EXPECT_EQ(view.machines(), 4u);
  // Interleave entry and structural deltas.
  view.set_entry(1, 1, 0.5);
  check();
  view.add_machine(random_vector(view.tasks(), rng));
  check();
}

TEST(MeasureView, RefreshIsBitIdenticalToColdMeasures) {
  MeasureView view(random_ecs(10, 5, 43));
  hetero::etcgen::Rng rng(44);
  for (int step = 0; step < 25; ++step)
    view.set_entry(
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 10.0)) % 10,
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 5.0)) % 5,
        hetero::etcgen::uniform(rng, 0.05, 4.0));
  const MeasureSet refreshed = view.refresh();
  const MeasureSet cold =
      MeasureView::cold_measures(view.ecs(), view.options().sinkhorn);
  expect_bits_equal(refreshed, cold);
  expect_bits_equal(view.current(), cold);
  EXPECT_EQ(view.stats().accumulated_drift, 0.0);
  EXPECT_TRUE(view.stats().last_update_cold);
}

TEST(MeasureView, ColdRefreshTriggersExactlyAtBudget) {
  // Probe the per-update charge, then allow exactly four warm updates: a
  // power-of-two multiple keeps the repeated drift addition exact in
  // floating point, so the fifth update must land exactly on the budget
  // boundary and go cold.
  const Matrix ecs = random_ecs(8, 4, 3);
  const double charge = MeasureView(ecs).drift_charge();
  MeasureViewOptions options;
  options.error_budget = 4.0 * charge;
  MeasureView view(ecs, options);
  for (int step = 0; step < 4; ++step) {
    view.set_entry(0, 0, 1.0 + 0.1 * step);
    EXPECT_FALSE(view.stats().last_update_cold) << "step " << step;
  }
  EXPECT_EQ(view.stats().warm_updates, 4u);
  EXPECT_EQ(view.stats().cold_refreshes, 0u);
  EXPECT_EQ(view.stats().accumulated_drift, options.error_budget);
  const MeasureSet after = view.set_entry(1, 1, 2.0);
  EXPECT_TRUE(view.stats().last_update_cold);
  EXPECT_EQ(view.stats().cold_refreshes, 1u);
  EXPECT_EQ(view.stats().warm_updates, 4u);
  EXPECT_EQ(view.stats().accumulated_drift, 0.0);
  expect_bits_equal(after, MeasureView::cold_measures(view.ecs(),
                                                      options.sinkhorn));
}

TEST(MeasureView, NonPositiveBudgetMakesEveryUpdateCold) {
  MeasureViewOptions options;
  options.error_budget = 0.0;
  MeasureView view(random_ecs(6, 3, 13), options);
  view.set_entry(0, 0, 1.5);
  view.set_entry(1, 2, 0.25);
  EXPECT_EQ(view.stats().cold_refreshes, 2u);
  EXPECT_EQ(view.stats().warm_updates, 0u);
  expect_bits_equal(view.current(), MeasureView::cold_measures(
                                        view.ecs(), options.sinkhorn));
}

TEST(MeasureView, ScaleOverflowUpdateRevertsState) {
  // Converged Sinkhorn scales of an all-tiny matrix are large; warm-seeding
  // a DBL_MAX-magnitude entry through them overflows a column sum, which
  // the scale guard surfaces as ScaleOverflowError. The strong exception
  // guarantee requires the view to be exactly as before the poison update.
  Matrix tiny(4, 4, 1e-6);
  MeasureView view(tiny);
  const MeasureSet before = view.current();
  const std::uint64_t version_before = view.stats().version;

  std::vector<CellDelta> poison;
  for (std::size_t i = 0; i < 4; ++i)
    poison.push_back(CellDelta{i, 0, 1e308});
  EXPECT_THROW(view.set_entries(poison), hetero::ScaleOverflowError);

  expect_bits_equal(view.current(), before);
  EXPECT_EQ(view.stats().version, version_before);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(view.ecs()(i, j), 1e-6);

  // The view stays usable: a valid follow-up update succeeds and matches
  // the cold pipeline.
  view.set_entry(0, 0, 2e-6);
  expect_close(view.current(),
               MeasureView::cold_measures(view.ecs(), view.options().sinkhorn),
               view.options().error_budget);
  EXPECT_EQ(view.stats().version, version_before + 1);
}

TEST(MeasureView, RemoveDownToOneMachineAndLastRemovalThrows) {
  MeasureView view(random_ecs(5, 3, 71));
  view.remove_machine(1);
  view.remove_machine(1);
  EXPECT_EQ(view.machines(), 1u);
  // A single-column ECS has a degenerate spectrum: TMA is exactly zero and
  // MPH (one machine performance) is exactly one.
  EXPECT_EQ(view.current().tma, 0.0);
  EXPECT_EQ(view.current().mph, 1.0);
  expect_bits_equal(view.current(), MeasureView::cold_measures(
                                        view.ecs(), view.options().sinkhorn));

  const std::uint64_t version = view.stats().version;
  EXPECT_THROW(view.remove_machine(0), hetero::ValueError);
  EXPECT_EQ(view.machines(), 1u);
  EXPECT_EQ(view.stats().version, version);

  // Growing back out of the degenerate shape works.
  hetero::etcgen::Rng rng(72);
  view.add_machine(random_vector(view.tasks(), rng));
  EXPECT_EQ(view.machines(), 2u);
  expect_close(view.current(),
               MeasureView::cold_measures(view.ecs(), view.options().sinkhorn),
               view.options().error_budget);

  EXPECT_THROW(MeasureView(random_ecs(1, 3, 1)).remove_task(0),
               hetero::ValueError);
}

TEST(MeasureView, InvalidDeltasRejectedWithStateIntact) {
  MeasureView view(random_ecs(4, 3, 55));
  const MeasureSet before = view.current();
  EXPECT_THROW(view.set_entry(4, 0, 1.0), hetero::Error);
  EXPECT_THROW(view.set_entry(0, 3, 1.0), hetero::Error);
  EXPECT_THROW(view.set_entry(0, 0, 0.0), hetero::Error);
  EXPECT_THROW(view.set_entry(0, 0, -1.0), hetero::Error);
  EXPECT_THROW(view.set_entry(0, 0, std::nan("")), hetero::Error);
  EXPECT_THROW(view.add_task(std::vector<double>{1.0, 2.0}), hetero::Error);
  EXPECT_THROW(view.add_machine(std::vector<double>{1.0, 0.0, 2.0, 3.0}),
               hetero::Error);
  EXPECT_THROW(view.remove_task(4), hetero::Error);
  expect_bits_equal(view.current(), before);
  EXPECT_EQ(view.stats().version, 0u);
}

TEST(MeasureView, IdenticalStreamsAreBitIdentical) {
  const Matrix ecs = random_ecs(12, 6, 99);
  MeasureView a(ecs);
  MeasureView b(ecs);
  hetero::etcgen::Rng ra(5), rb(5);
  const auto step = [](MeasureView& v, hetero::etcgen::Rng& rng) {
    const std::size_t i =
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 12.0)) % 12;
    const std::size_t j =
        static_cast<std::size_t>(hetero::etcgen::uniform(rng, 0.0, 6.0)) % 6;
    v.set_entry(i, j, hetero::etcgen::uniform(rng, 0.05, 4.0));
  };
  for (int s = 0; s < 60; ++s) {
    step(a, ra);
    step(b, rb);
    expect_bits_equal(a.current(), b.current());
  }
  EXPECT_EQ(a.stats().cold_refreshes, b.stats().cold_refreshes);
  EXPECT_EQ(a.stats().accumulated_drift, b.stats().accumulated_drift);
}

// ---- Recorded bits of a seeded update script ----
//
// A digest (FNV-1a 64) over the published measure bits, the shape, and every
// Stats field after each operation of a seeded script. The expected values
// were recorded before the view's staging/commit path was rewritten around
// proposals; any change to the bits any operation publishes, or to when a
// cold refresh fires, fails here.

class Digest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (x >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const MeasureView& v) {
    add(v.current().mph);
    add(v.current().tdh);
    add(v.current().tma);
    add(static_cast<std::uint64_t>(v.tasks()));
    add(static_cast<std::uint64_t>(v.machines()));
    add(v.stats().version);
    add(v.stats().warm_updates);
    add(v.stats().cold_refreshes);
    add(v.stats().accumulated_drift);
    add(static_cast<std::uint64_t>(v.stats().last_update_cold));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Mixed script under a finite budget: 1-, 4- and 20-cell batches (20 takes
// the re-sort path), structural add/remove on both axes, forced refreshes,
// and invalid operations that must leave the view untouched.
std::uint64_t mixed_script_digest(std::uint64_t* cold_refreshes) {
  MeasureViewOptions options;
  options.error_budget = 1e-6;
  MeasureView view(random_ecs(24, 10, 2024), options);
  hetero::etcgen::Rng rng(77);
  Digest digest;
  digest.add(view);
  constexpr std::size_t kBatch[] = {1, 4, 20};
  for (int op = 0; op < 1000; ++op) {
    const double roll = hetero::etcgen::uniform(rng, 0.0, 1.0);
    if (roll < 0.8) {
      std::vector<CellDelta> deltas(
          kBatch[hetero::etcgen::uniform_index(rng, 3)]);
      for (CellDelta& d : deltas) {
        d.task = hetero::etcgen::uniform_index(rng, view.tasks());
        d.machine = hetero::etcgen::uniform_index(rng, view.machines());
        d.value = view.ecs()(d.task, d.machine) *
                  std::exp(hetero::etcgen::uniform(rng, -0.4, 0.4));
      }
      view.set_entries(deltas);
    } else if (roll < 0.84) {
      if (view.tasks() < 32) view.add_task(random_vector(view.machines(), rng));
    } else if (roll < 0.88) {
      if (view.tasks() > 16)
        view.remove_task(hetero::etcgen::uniform_index(rng, view.tasks()));
    } else if (roll < 0.92) {
      if (view.machines() < 14)
        view.add_machine(random_vector(view.tasks(), rng));
    } else if (roll < 0.96) {
      if (view.machines() > 6)
        view.remove_machine(
            hetero::etcgen::uniform_index(rng, view.machines()));
    } else if (roll < 0.98) {
      view.refresh();
    } else {
      EXPECT_THROW(view.set_entry(view.tasks(), 0, 1.0), hetero::Error);
      EXPECT_THROW(view.set_entry(0, 0, -1.0), hetero::Error);
    }
    digest.add(view);
  }
  *cold_refreshes = view.stats().cold_refreshes;
  return digest.value();
}

// The annealing configuration: search-grade Sinkhorn, an unlimited budget,
// and single-cell updates, so only the 256-update cap forces cold refreshes.
std::uint64_t capped_script_digest(std::uint64_t* cold_refreshes) {
  MeasureViewOptions options;
  options.sinkhorn = hetero::etcgen::search_sinkhorn_options(0.02);
  options.error_budget = std::numeric_limits<double>::infinity();
  MeasureView view(random_ecs(8, 6, 31), options);
  hetero::etcgen::Rng rng(32);
  Digest digest;
  digest.add(view);
  for (int op = 0; op < 800; ++op) {
    const std::size_t i = hetero::etcgen::uniform_index(rng, view.tasks());
    const std::size_t j = hetero::etcgen::uniform_index(rng, view.machines());
    view.set_entry(i, j,
                   view.ecs()(i, j) *
                       std::exp(hetero::etcgen::normal(rng, 0.0, 0.2)));
    digest.add(view);
  }
  *cold_refreshes = view.stats().cold_refreshes;
  return digest.value();
}

TEST(MeasureViewGolden, UpdateScriptMatchesRecordedBits) {
  std::uint64_t mixed_cold = 0, capped_cold = 0;
  const std::uint64_t mixed = mixed_script_digest(&mixed_cold);
  const std::uint64_t capped = capped_script_digest(&capped_cold);
  // The scripts must cross several cold refreshes to pin their bits.
  EXPECT_GE(mixed_cold, 3u);
  EXPECT_GE(capped_cold, 3u);
  EXPECT_EQ(mixed, 0x389b7a6de725f497ULL)
      << std::hex << "mixed digest 0x" << mixed;
  EXPECT_EQ(capped, 0x4d346bc52bb2085aULL)
      << std::hex << "capped digest 0x" << capped;
}

// ---- Proposals: the annealing generator's evaluate/accept/reject chain ----

Matrix chain_seed(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.2, 8.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

// The generator's configuration: only the update cap forces a refresh.
MeasureViewOptions chain_options(const hetero::core::SinkhornOptions& sk) {
  MeasureViewOptions options;
  options.sinkhorn = sk;
  options.error_budget = std::numeric_limits<double>::infinity();
  return options;
}

const MeasureSet& propose_one(MeasureView& view, std::size_t task,
                              std::size_t machine, double value) {
  const CellDelta d{task, machine, value};
  return view.propose(std::span<const CellDelta>(&d, 1));
}

void expect_stats_equal(const MeasureView::Stats& a,
                        const MeasureView::Stats& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.warm_updates, b.warm_updates);
  EXPECT_EQ(a.cold_refreshes, b.cold_refreshes);
  EXPECT_EQ(a.accumulated_drift, b.accumulated_drift);
  EXPECT_EQ(a.last_update_cold, b.last_update_cold);
}

TEST(MeasureViewProposal, MatchesFreshRecomputeAfterLongChain) {
  // Drive the view through enough accepted proposals to cross the update
  // cap, with a mix of accepts and rejects, then compare the maintained
  // state against a cold evaluation of the final matrix.
  hetero::core::SinkhornOptions opts;
  opts.tolerance = 1e-9;
  opts.max_iterations = 500;
  MeasureView view(chain_seed(9, 6, 1234), chain_options(opts));
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> pick(0, 9 * 6 - 1);
  std::uniform_real_distribution<double> step(-0.3, 0.3);
  for (int p = 0; p < 600; ++p) {
    const std::size_t k = pick(rng);
    propose_one(view, k / 6, k % 6, view.ecs().data()[k] * std::exp(step(rng)));
    if (p % 3 != 0)
      view.accept();
    else
      view.reject();
  }
  EXPECT_GE(view.stats().cold_refreshes, 1u);
  const MeasureSet fresh = MeasureView::cold_measures(view.ecs(), opts);
  // MPH/TDH ride on incrementally maintained sums (drift bounded by the
  // periodic refresh); TMA additionally tolerates the warm-vs-cold Sinkhorn
  // and eigensolve difference at their 1e-8/1e-9 budgets.
  EXPECT_NEAR(view.current().mph, fresh.mph, 1e-9);
  EXPECT_NEAR(view.current().tdh, fresh.tdh, 1e-9);
  EXPECT_NEAR(view.current().tma, fresh.tma, 1e-6);
  const auto raw = hetero::etcgen::measure_set_raw(view.ecs());
  EXPECT_NEAR(view.current().mph, raw.mph, 1e-9);
  EXPECT_NEAR(view.current().tdh, raw.tdh, 1e-9);
  EXPECT_NEAR(view.current().tma, raw.tma, 1e-6);
}

TEST(MeasureViewProposal, RejectRestoresState) {
  const Matrix seed = chain_seed(6, 4, 7);
  MeasureView view(seed);
  const MeasureSet before = view.current();
  const MeasureView::Stats stats_before = view.stats();
  const MeasureSet first = propose_one(view, 1, 1, 3.25);
  EXPECT_EQ(view.ecs()(1, 1), 3.25);
  view.reject();
  EXPECT_EQ(view.ecs(), seed);
  expect_bits_equal(view.current(), before);
  expect_stats_equal(view.stats(), stats_before);
  // Re-proposing the identical change must reproduce the evaluation exactly
  // (the committed warm state was untouched by the reject).
  expect_bits_equal(propose_one(view, 1, 1, 3.25), first);
  expect_bits_equal(view.accept(), first);
  expect_bits_equal(view.current(), first);
}

TEST(MeasureViewProposal, RejectedColdProposalLeavesWarmStateAlone) {
  // Spend the update cap, so the next proposal lands on a cold refresh.
  MeasureViewOptions options;
  options.error_budget = std::numeric_limits<double>::infinity();
  options.max_updates_between_refresh = 3;
  const Matrix seed = chain_seed(6, 4, 17);
  MeasureView view(seed, options);
  MeasureView twin(seed, options);
  for (std::size_t step = 0; step < 3; ++step) {
    view.set_entry(step, 0, 1.0 + 0.5 * static_cast<double>(step));
    twin.set_entry(step, 0, 1.0 + 0.5 * static_cast<double>(step));
  }
  const Matrix committed = view.ecs();
  const MeasureSet before = view.current();
  const MeasureView::Stats stats_before = view.stats();
  const MeasureSet cold = propose_one(view, 4, 2, 6.5);
  Matrix candidate = committed;
  candidate(4, 2) = 6.5;
  expect_bits_equal(cold,
                    MeasureView::cold_measures(candidate, options.sinkhorn));
  view.reject();
  EXPECT_EQ(view.ecs(), committed);
  expect_bits_equal(view.current(), before);
  expect_stats_equal(view.stats(), stats_before);
  // The cap is still spent, and the warm state is still the committed one:
  // a follow-up stream matches a twin that never saw the rejected proposal.
  expect_bits_equal(propose_one(view, 4, 2, 6.5), cold);
  view.accept();
  twin.set_entry(4, 2, 6.5);
  EXPECT_TRUE(view.stats().last_update_cold);
  for (std::size_t step = 0; step < 5; ++step) {
    view.set_entry(5, step % 4, 0.75 + static_cast<double>(step));
    twin.set_entry(5, step % 4, 0.75 + static_cast<double>(step));
    expect_bits_equal(view.current(), twin.current());
    expect_stats_equal(view.stats(), twin.stats());
  }
}

TEST(MeasureViewProposal, ValidatesProtocolAndInputs) {
  MeasureView view(chain_seed(4, 3, 3));
  EXPECT_THROW(view.accept(), hetero::ValueError);  // nothing proposed
  EXPECT_THROW(view.reject(), hetero::ValueError);
  EXPECT_THROW(view.propose({}), hetero::ValueError);  // no cells
  const MeasureSet proposed = propose_one(view, 0, 0, 1.5);
  const MeasureSet committed = view.current();
  // Every other mutator refuses while the proposal is open.
  EXPECT_THROW(propose_one(view, 1, 1, 2.0), hetero::ValueError);
  EXPECT_THROW(view.set_entry(1, 1, 2.0), hetero::ValueError);
  EXPECT_THROW(view.set_entries({}), hetero::ValueError);
  EXPECT_THROW(view.add_task(std::vector<double>{1.0, 2.0, 3.0}),
               hetero::ValueError);
  EXPECT_THROW(view.add_machine(std::vector<double>{1.0, 2.0, 3.0, 4.0}),
               hetero::ValueError);
  EXPECT_THROW(view.remove_task(0), hetero::ValueError);
  EXPECT_THROW(view.remove_machine(0), hetero::ValueError);
  EXPECT_THROW(view.refresh(), hetero::ValueError);
  // ... and leaves it intact.
  EXPECT_EQ(view.ecs()(0, 0), 1.5);
  EXPECT_EQ(view.tasks(), 4u);
  EXPECT_EQ(view.machines(), 3u);
  expect_bits_equal(view.current(), committed);
  expect_bits_equal(view.accept(), proposed);

  EXPECT_THROW(propose_one(view, 4, 0, 1.0), hetero::DimensionError);
  EXPECT_THROW(propose_one(view, 0, 3, 1.0), hetero::DimensionError);
  EXPECT_THROW(propose_one(view, 0, 0, 0.0), hetero::ValueError);
  EXPECT_THROW(propose_one(view, 0, 0, -1.0), hetero::ValueError);
  EXPECT_THROW(view.accept(), hetero::ValueError);  // nothing was opened
  EXPECT_EQ(view.stats().version, 1u);

  Matrix zero(2, 2, 1.0);
  zero(1, 1) = 0.0;
  EXPECT_THROW(MeasureView bad(zero), hetero::ValueError);
}

TEST(MeasureViewProposal, AcceptMatchesSetEntries) {
  // propose+accept and set_entries are one update path: over a seeded
  // stream that crosses the update cap (and takes the re-sort path for
  // large batches), both views publish the same bits after every step.
  MeasureViewOptions options;
  options.max_updates_between_refresh = 40;
  options.error_budget = std::numeric_limits<double>::infinity();
  const Matrix seed = random_ecs(10, 7, 404);
  MeasureView proposer(seed, options);
  MeasureView setter(seed, options);
  hetero::etcgen::Rng rng(405);
  for (int step = 0; step < 150; ++step) {
    std::vector<CellDelta> deltas(step % 5 == 0 ? 20 : 1 + step % 3);
    for (CellDelta& d : deltas) {
      d.task = hetero::etcgen::uniform_index(rng, 10);
      d.machine = hetero::etcgen::uniform_index(rng, 7);
      d.value = hetero::etcgen::uniform(rng, 0.05, 4.0);
    }
    if (step % 4 == 3) {
      // A rejected detour must not perturb the accepted stream.
      proposer.propose(deltas);
      proposer.reject();
    }
    proposer.propose(deltas);
    proposer.accept();
    setter.set_entries(deltas);
    expect_bits_equal(proposer.current(), setter.current());
    expect_stats_equal(proposer.stats(), setter.stats());
  }
  EXPECT_GE(setter.stats().cold_refreshes, 3u);
  EXPECT_EQ(proposer.ecs(), setter.ecs());
}

TEST(EtcEstimator, ExponentialMeanAndMaterialityGate) {
  Matrix etc(2, 2, 10.0);
  EtcEstimatorOptions options;
  options.alpha = 0.5;
  options.min_rel_change = 0.05;
  EtcEstimator est(etc, options);
  EXPECT_EQ(est.mean(0, 0), 10.0);
  EXPECT_EQ(est.last_fed(0, 0), 10.0);

  // One observation at 10.4: mean 10.2, a 2% move — below the 5% gate.
  EXPECT_FALSE(est.observe(0, 0, 10.4).has_value());
  EXPECT_DOUBLE_EQ(est.mean(0, 0), 10.2);
  EXPECT_EQ(est.last_fed(0, 0), 10.0);

  // Next at 12.0: mean 11.1, an 11% move — emitted and marked fed.
  const auto revised = est.observe(0, 0, 12.0);
  ASSERT_TRUE(revised.has_value());
  EXPECT_DOUBLE_EQ(*revised, 11.1);
  EXPECT_DOUBLE_EQ(est.last_fed(0, 0), 11.1);
  EXPECT_EQ(est.count(0, 0), 2u);
  EXPECT_EQ(est.observations(), 2u);

  // Other cells are untouched.
  EXPECT_EQ(est.mean(1, 1), 10.0);
  EXPECT_EQ(est.count(1, 1), 0u);

  // An authoritative set resets the cell's history.
  est.set(0, 0, 20.0);
  EXPECT_EQ(est.mean(0, 0), 20.0);
  EXPECT_EQ(est.last_fed(0, 0), 20.0);
  EXPECT_EQ(est.count(0, 0), 0u);
}

TEST(EtcEstimator, InvertsLognormalRuntimeNoise) {
  // Feed draws of the etcgen forward model; the tracked mean must settle
  // near the true ETC (the lognormal mean bias at cov=0.2 is ~2%).
  const double true_etc = 5.0;
  Matrix etc(1, 1, 8.0);  // deliberately wrong seed
  EtcEstimatorOptions options;
  options.alpha = 0.05;
  options.min_rel_change = 0.0;
  EtcEstimator est(etc, options);
  hetero::etcgen::Rng rng(123);
  for (int i = 0; i < 2000; ++i)
    est.observe(0, 0, hetero::etcgen::sample_runtime_lognormal(true_etc, 0.2,
                                                               rng));
  EXPECT_NEAR(est.mean(0, 0), true_etc, 0.5);
}

TEST(EtcEstimator, StructuralOpsAndValidation) {
  Matrix etc(2, 2, 1.0);
  EtcEstimator est(etc);
  est.add_task(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(est.tasks(), 3u);
  EXPECT_EQ(est.mean(2, 1), 4.0);
  est.add_machine(std::vector<double>{5.0, 6.0, 7.0});
  EXPECT_EQ(est.machines(), 3u);
  EXPECT_EQ(est.mean(2, 2), 7.0);
  est.remove_task(0);
  EXPECT_EQ(est.tasks(), 2u);
  EXPECT_EQ(est.mean(1, 2), 7.0);
  est.remove_machine(1);
  EXPECT_EQ(est.machines(), 2u);
  EXPECT_EQ(est.mean(0, 1), 6.0);

  EXPECT_THROW(est.observe(5, 0, 1.0), hetero::Error);
  EXPECT_THROW(est.observe(0, 0, 0.0), hetero::Error);
  EXPECT_THROW(est.observe(0, 0, std::nan("")), hetero::Error);
  EXPECT_THROW(est.add_task(std::vector<double>{1.0}), hetero::Error);
  EXPECT_THROW(est.set(0, 0, -2.0), hetero::Error);
}

}  // namespace

#include "core/etc_matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace {

using hetero::DimensionError;
using hetero::ValueError;
using hetero::core::EcsMatrix;
using hetero::core::EtcMatrix;
using hetero::core::Weights;
using hetero::linalg::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EtcMatrix, BasicConstruction) {
  EtcMatrix etc(Matrix{{1, 2}, {3, 4}});
  EXPECT_EQ(etc.task_count(), 2u);
  EXPECT_EQ(etc.machine_count(), 2u);
  EXPECT_EQ(etc(1, 0), 3);
  EXPECT_EQ(etc.task_names(), (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(etc.machine_names(), (std::vector<std::string>{"m1", "m2"}));
}

TEST(EtcMatrix, CustomLabels) {
  EtcMatrix etc(Matrix{{1, 2}}, {"gcc"}, {"xeon", "power"});
  EXPECT_EQ(etc.task_index("gcc"), 0u);
  EXPECT_EQ(etc.machine_index("power"), 1u);
  EXPECT_THROW(etc.task_index("missing"), ValueError);
  EXPECT_THROW(etc.machine_index("missing"), ValueError);
}

TEST(EtcMatrix, LabelCountMismatchThrows) {
  EXPECT_THROW(EtcMatrix(Matrix{{1, 2}}, {"a", "b"}, {}), DimensionError);
  EXPECT_THROW(EtcMatrix(Matrix{{1, 2}}, {}, {"x"}), DimensionError);
}

TEST(EtcMatrix, RejectsNonPositive) {
  EXPECT_THROW(EtcMatrix(Matrix{{0, 1}, {1, 1}}), ValueError);
  EXPECT_THROW(EtcMatrix(Matrix{{-1, 1}, {1, 1}}), ValueError);
  EXPECT_THROW(EtcMatrix(Matrix{{std::nan(""), 1}, {1, 1}}), ValueError);
}

TEST(EtcMatrix, RejectsEmptyMatrix) {
  EXPECT_THROW(EtcMatrix(Matrix{}), DimensionError);
}

TEST(EtcMatrix, InfinityMeansCannotRun) {
  EtcMatrix etc(Matrix{{1, kInf}, {kInf, 2}});
  EXPECT_TRUE(std::isinf(etc(0, 1)));
}

TEST(EtcMatrix, RejectsAllInfRowOrColumn) {
  EXPECT_THROW(EtcMatrix(Matrix{{kInf, kInf}, {1, 2}}), ValueError);
  EXPECT_THROW(EtcMatrix(Matrix{{kInf, 1}, {kInf, 2}}), ValueError);
}

// The message names the highest-precedence failure: a bad entry, then a
// task that runs nowhere, then a machine that runs nothing — wherever in
// the matrix each one sits.
std::string construction_error(const Matrix& m) {
  try {
    const EtcMatrix etc(m);
  } catch (const ValueError& e) {
    return e.what();
  }
  return "";
}

TEST(EtcMatrix, TwoFailuresReportTheHigherPrecedence) {
  const std::string entry = "EtcMatrix: entries must be positive or +inf";
  const std::string row = "EtcMatrix: task runs on no machine";
  const std::string col = "EtcMatrix: machine runs no task";
  // Dead first row, bad entry in the last row.
  EXPECT_EQ(construction_error(Matrix{{kInf, kInf}, {1, 2}, {3, -1}}),
            entry);
  // Dead column first, dead row after it.
  EXPECT_EQ(construction_error(Matrix{{kInf, 1, 2}, {kInf, 3, 4},
                                      {kInf, kInf, kInf}}),
            row);
  // Dead last column only.
  EXPECT_EQ(construction_error(Matrix{{1, kInf}, {2, kInf}}), col);
  // NaN behind a dead column.
  EXPECT_EQ(construction_error(Matrix{{kInf, 1}, {kInf, std::nan("")}}),
            entry);
}

TEST(EtcMatrix, ToEcsReciprocal) {
  EtcMatrix etc(Matrix{{2, kInf}, {4, 5}});
  EcsMatrix ecs = etc.to_ecs();
  EXPECT_DOUBLE_EQ(ecs(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ecs(0, 1), 0.0);  // eq. 1: infinity -> 0
  EXPECT_DOUBLE_EQ(ecs(1, 1), 0.2);
  EXPECT_EQ(ecs.task_names(), etc.task_names());
}

TEST(EtcMatrix, EcsRoundTrip) {
  EtcMatrix etc(Matrix{{2, kInf}, {4, 5}});
  EtcMatrix back = etc.to_ecs().to_etc();
  EXPECT_DOUBLE_EQ(back(0, 0), 2.0);
  EXPECT_TRUE(std::isinf(back(0, 1)));
  EXPECT_DOUBLE_EQ(back(1, 1), 5.0);
}

TEST(EtcMatrix, SubmatrixKeepsLabels) {
  EtcMatrix etc(Matrix{{1, 2, 3}, {4, 5, 6}}, {"a", "b"}, {"x", "y", "z"});
  const std::size_t tasks[] = {1};
  const std::size_t machines[] = {2, 0};
  EtcMatrix sub = etc.submatrix(tasks, machines);
  EXPECT_EQ(sub.task_names(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(sub.machine_names(), (std::vector<std::string>{"z", "x"}));
  EXPECT_EQ(sub(0, 0), 6);
  EXPECT_EQ(sub(0, 1), 4);
}

TEST(EcsMatrix, BasicConstruction) {
  EcsMatrix ecs(Matrix{{1, 0}, {0.5, 2}});
  EXPECT_EQ(ecs.task_count(), 2u);
  EXPECT_DOUBLE_EQ(ecs(0, 1), 0.0);
}

TEST(EcsMatrix, RejectsInvalid) {
  EXPECT_THROW(EcsMatrix(Matrix{{-1, 1}, {1, 1}}), ValueError);
  EXPECT_THROW(EcsMatrix(Matrix{{kInf, 1}, {1, 1}}), ValueError);
  // All-zero row: a task type no machine can execute (paper Section II-B).
  EXPECT_THROW(EcsMatrix(Matrix{{0, 0}, {1, 1}}), ValueError);
  // All-zero column: a machine that executes nothing.
  EXPECT_THROW(EcsMatrix(Matrix{{0, 1}, {0, 1}}), ValueError);
}

TEST(EcsMatrix, WeightedValues) {
  EcsMatrix ecs(Matrix{{1, 2}, {3, 4}});
  Weights w;
  w.task = {2.0, 1.0};
  w.machine = {1.0, 10.0};
  const Matrix v = ecs.weighted_values(w);
  EXPECT_DOUBLE_EQ(v(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(v(0, 1), 40.0);
  EXPECT_DOUBLE_EQ(v(1, 1), 40.0);
}

TEST(EcsMatrix, UniformWeightsAreIdentity) {
  EcsMatrix ecs(Matrix{{1, 2}, {3, 4}});
  EXPECT_EQ(ecs.weighted_values(Weights::uniform()), ecs.values());
}

TEST(EcsMatrix, WeightValidation) {
  EcsMatrix ecs(Matrix{{1, 2}, {3, 4}});
  Weights bad_size;
  bad_size.task = {1.0};
  EXPECT_THROW(ecs.weighted_values(bad_size), DimensionError);
  Weights bad_value;
  bad_value.machine = {1.0, -1.0};
  EXPECT_THROW(ecs.weighted_values(bad_value), ValueError);
}

TEST(EcsMatrix, PermutedValidatesPermutation) {
  EcsMatrix ecs(Matrix{{1, 2}, {3, 4}}, {"a", "b"}, {"x", "y"});
  const std::size_t tp[] = {1, 0};
  const std::size_t mp[] = {0, 1};
  EcsMatrix p = ecs.permuted(tp, mp);
  EXPECT_EQ(p.task_names(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(p(0, 0), 3);
  const std::size_t bad[] = {0, 0};
  EXPECT_THROW(ecs.permuted(bad, mp), ValueError);
}

TEST(DefaultLabels, Format) {
  const auto labels = hetero::core::default_labels(3, 'm');
  EXPECT_EQ(labels, (std::vector<std::string>{"m1", "m2", "m3"}));
}

}  // namespace

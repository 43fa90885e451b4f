#include "core/prediction.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_map>
#include <vector>

namespace sparcle {
namespace {

Network make_pair_net() {
  Network net(ResourceSchema::cpu_only());
  net.add_ncp("a", ResourceVector::scalar(90));
  net.add_ncp("b", ResourceVector::scalar(60));
  net.add_link("l", 0, 1, 30);
  return net;
}

using Competing = std::unordered_map<ElementKey, double>;

/// `base` scaled by apply_priority_shares for an arriving app of
/// `priority` against `competing` (per-element total priority of the
/// placed BE apps, each counted once per element — the scheduler's
/// competing index).
CapacitySnapshot predict(CapacitySnapshot base, const Competing& competing,
                         double priority) {
  apply_priority_shares(base, competing, priority);
  return base;
}

TEST(Prediction, PaperWorkedExample) {
  // App a (priority P) occupies NCP 0; arriving app b with priority 2P
  // should predict 2/3 of NCP 0's capacity (eq. (6) worked example).
  const Network net = make_pair_net();
  const CapacitySnapshot pred =
      predict(CapacitySnapshot(net), {{ElementKey::ncp(0), 1.0}}, 2.0);
  EXPECT_NEAR(pred.ncp(0)[0], 90.0 * 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(pred.ncp(1)[0], 60.0);  // untouched
  EXPECT_DOUBLE_EQ(pred.link(0), 30.0);
}

TEST(Prediction, EqualPrioritiesHalve) {
  const Network net = make_pair_net();
  const CapacitySnapshot pred =
      predict(CapacitySnapshot(net), {{ElementKey::link(0), 1.0}}, 1.0);
  EXPECT_NEAR(pred.link(0), 15.0, 1e-12);
}

TEST(Prediction, MultipleIncumbentsAccumulate) {
  // Incumbents of priority 1 and 2 on NCP 0: the share denominator is
  // the arrival's priority plus their sum.
  const Network net = make_pair_net();
  const CapacitySnapshot pred =
      predict(CapacitySnapshot(net), {{ElementKey::ncp(0), 1.0 + 2.0}}, 1.0);
  EXPECT_NEAR(pred.ncp(0)[0], 90.0 * 1.0 / 4.0, 1e-12);
}

TEST(Prediction, DuplicateElementsOfOneAppCountOnce) {
  // One app of priority 1 whose two paths both cross NCP 0 competes there
  // once (Scheduler.PredictionCountsAnAppOncePerElement checks the
  // scheduler's index builds it so): NCP 0 is halved, and scaled once.
  const Network net = make_pair_net();
  const CapacitySnapshot pred =
      predict(CapacitySnapshot(net), {{ElementKey::ncp(0), 1.0}}, 1.0);
  EXPECT_NEAR(pred.ncp(0)[0], 45.0, 1e-12);
}

TEST(Prediction, NoIncumbentsMeansFullCapacity) {
  const Network net = make_pair_net();
  const CapacitySnapshot pred = predict(CapacitySnapshot(net), {}, 5.0);
  EXPECT_DOUBLE_EQ(pred.ncp(0)[0], 90.0);
  EXPECT_DOUBLE_EQ(pred.link(0), 30.0);
}

TEST(Prediction, AppliesOnTopOfResidualBase) {
  const Network net = make_pair_net();
  CapacitySnapshot base(net);
  base.ncp(0)[0] = 50.0;  // e.g. after a GR reservation
  const CapacitySnapshot pred =
      predict(base, {{ElementKey::ncp(0), 1.0}}, 1.0);
  EXPECT_NEAR(pred.ncp(0)[0], 25.0, 1e-12);
}

TEST(Prediction, RejectsNonPositivePriorities) {
  const Network net = make_pair_net();
  const CapacitySnapshot base(net);
  const Competing competing = {{ElementKey::ncp(0), 1.0}};
  EXPECT_THROW(predict(base, competing, 0.0), std::invalid_argument);
  EXPECT_THROW(predict(base, competing, -1.0), std::invalid_argument);
  EXPECT_THROW(
      predict(base, competing, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  // A zero total (every incumbent on the element has left) scales nothing.
  const CapacitySnapshot pred =
      predict(base, {{ElementKey::ncp(0), 0.0}}, 1.0);
  EXPECT_DOUBLE_EQ(pred.ncp(0)[0], 90.0);
}

}  // namespace
}  // namespace sparcle

// Differential graph-fuzzing harness for the optimizer tier (DESIGN.md
// §13): each seed builds a random DAG (fuzz_graph.h) and runs it through
// two DirectSessions over the SAME graph, one with the
// optimizer tier enabled and one with it disabled. Every fetched tensor,
// every per-step loss, and the post-training variable states must agree
// bit-for-bit: optimization is only legal if it is invisible.
//
// 20 seeds run in ctest; scripts/check.sh re-runs seeds 0-4 under TSan.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz_graph.h"
#include "runtime/session.h"

namespace tfrepro {
namespace {

using fuzz::BuildFuzzGraph;
using fuzz::FuzzGraph;

// The seed's trajectory through one DirectSession. `enable` flips the
// optimizer tier; everything else is identical.
std::vector<std::string> RunTrajectory(
    const FuzzGraph& fg,
    const std::vector<std::vector<std::pair<std::string, Tensor>>>& feeds,
    bool enable, int num_devices) {
  SessionOptions options;
  options.optimizer.enable = enable;
  options.num_devices = num_devices;
  if (num_devices > 1) {
    options.placer.balance = PlacerOptions::Balance::kArity;
  }
  auto session = DirectSession::Create(fg.graph, options);
  EXPECT_TRUE(session.ok()) << session.status();
  if (!session.ok()) return {};
  return fuzz::RunFuzzTrajectory(session.value().get(), fg, feeds);
}

void RunSeed(uint32_t seed) {
  FuzzGraph fg;
  BuildFuzzGraph(seed, "/device:CPU:0", &fg);
  if (std::getenv("FUZZ_DUMP") != nullptr) {
    for (Node* n : fg.graph.nodes()) {
      printf("%s = %s(", n->name().c_str(), n->op().c_str());
      for (const Edge* e : n->ordered_data_inputs()) {
        printf("%s:%d,", e->src->name().c_str(), e->src_output);
      }
      printf(")\n");
    }
  }
  if (::testing::Test::HasFatalFailure()) return;

  const std::vector<std::vector<std::pair<std::string, Tensor>>> feeds =
      fuzz::FuzzFeeds(seed);

  // Every third seed runs on two devices with spreading placement, so
  // chains cross device boundaries and Send/Recv pairs appear.
  const int num_devices = (seed % 3 == 1) ? 2 : 1;

  std::vector<std::string> optimized =
      RunTrajectory(fg, feeds, /*enable=*/true, num_devices);
  std::vector<std::string> baseline =
      RunTrajectory(fg, feeds, /*enable=*/false, num_devices);
  ASSERT_EQ(optimized.size(), baseline.size()) << "seed " << seed;
  ASSERT_FALSE(optimized.empty()) << "seed " << seed;
  for (size_t i = 0; i < optimized.size(); ++i) {
    EXPECT_EQ(optimized[i], baseline[i])
        << "seed " << seed << ": fetched tensor " << i
        << " differs between optimized and unoptimized execution";
  }
}

#define FUZZ_SEED_TEST(n) \
  TEST(OptimizerFuzzTest, Seed##n) { RunSeed(n); }

FUZZ_SEED_TEST(0)
FUZZ_SEED_TEST(1)
FUZZ_SEED_TEST(2)
FUZZ_SEED_TEST(3)
FUZZ_SEED_TEST(4)
FUZZ_SEED_TEST(5)
FUZZ_SEED_TEST(6)
FUZZ_SEED_TEST(7)
FUZZ_SEED_TEST(8)
FUZZ_SEED_TEST(9)
FUZZ_SEED_TEST(10)
FUZZ_SEED_TEST(11)
FUZZ_SEED_TEST(12)
FUZZ_SEED_TEST(13)
FUZZ_SEED_TEST(14)
FUZZ_SEED_TEST(15)
FUZZ_SEED_TEST(16)
FUZZ_SEED_TEST(17)
FUZZ_SEED_TEST(18)
FUZZ_SEED_TEST(19)

}  // namespace
}  // namespace tfrepro

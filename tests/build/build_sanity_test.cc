// Header-hygiene smoke test: pulls in one header from each src/ subsystem
// and links against od_core. If a header stops being self-contained (or a
// subsystem stops linking), this is the first binary to fail.

#include <gtest/gtest.h>

#include "armstrong/generator.h"
#include "axioms/system.h"
#include "core/dependency.h"
#include "engine/table.h"
#include "fd/fd_set.h"
#include "optimizer/planner.h"
#include "prover/prover.h"
#include "warehouse/date_dim.h"

namespace od {
namespace {

TEST(BuildSanityTest, HeadersAreSelfContainedAndLibraryLinks) {
  // Touch a symbol with out-of-line definitions so the linker must
  // actually resolve against od_core rather than headers alone.
  DependencySet m;
  EXPECT_TRUE(m.IsEmpty());
  prover::Prover prover(m);
  EXPECT_TRUE(prover.deps().IsEmpty());
}

}  // namespace
}  // namespace od

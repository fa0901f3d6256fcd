// The evenness-term ablation of the PMC score (Eq. 1, §4.2): the term narrows the spread of
// per-link probe coverage, and both variants keep the hard alpha constraint.
#include <gtest/gtest.h>

#include "src/pmc/pmc.h"
#include "src/routing/fattree_routing.h"

namespace detector {
namespace {

TEST(EvennessAblation, TermTightensCoverageSpread) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  const PathStore candidates = routing.Enumerate(PathEnumMode::kFull);
  PmcOptions with;
  with.alpha = 2;
  with.beta = 1;
  with.evenness_term = true;
  PmcOptions without = with;
  without.evenness_term = false;
  const auto m_with =
      BuildProbeMatrixFromCandidates(ft.topology(), candidates, with).matrix.Coverage();
  const auto m_without =
      BuildProbeMatrixFromCandidates(ft.topology(), candidates, without).matrix.Coverage();
  EXPECT_LE(m_with.max - m_with.min, m_without.max - m_without.min);
  // Both still satisfy the hard alpha constraint.
  EXPECT_GE(m_with.min, 2);
  EXPECT_GE(m_without.min, 2);
}

}  // namespace
}  // namespace detector

// Test-only reference for PLL (§5.3): the monolithic pass — one Preprocess over the whole
// window, then steps 2-5 and redundancy elimination over every link at once, with no
// partition and no cached state. It is an implementation of the scoring rules independent of
// PllLocalizer::RescoreComponent, the one scorer src/ runs, so the exactness gates compare
// LocalizeView and LocalizeIncremental against it instead of against themselves. A change to
// the thresholds, tie-breaks or redundancy rule must land here too; the gates trip loudly if
// the two drift.
#ifndef TESTS_PLL_REFERENCE_H_
#define TESTS_PLL_REFERENCE_H_

#include <algorithm>
#include <vector>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/localize/pll.h"
#include "src/localize/preprocess.h"

namespace detector {
namespace pll_reference {

// Strict total orders for suspect lists: ties on explained losses are broken by link id.
inline bool WeakerSuspect(const SuspectLink& a, const SuspectLink& b) {
  return a.explained_losses != b.explained_losses ? a.explained_losses < b.explained_losses
                                                  : a.link < b.link;
}

inline bool StrongerSuspect(const SuspectLink& a, const SuspectLink& b) {
  return a.explained_losses != b.explained_losses ? a.explained_losses > b.explained_losses
                                                  : a.link < b.link;
}

}  // namespace pll_reference

class ReferencePll {
 public:
  explicit ReferencePll(PllOptions options = PllOptions{}) : options_(options) {}

  LocalizeResult LocalizeView(const ProbeMatrix& matrix, ObservationView obs) const;

 private:
  PllOptions options_;
};

inline LocalizeResult ReferencePll::LocalizeView(const ProbeMatrix& matrix,
                                                 ObservationView obs) const {
  WallTimer timer;
  CHECK_EQ(obs.size(), matrix.NumPaths());
  LocalizeResult result;
  const PreprocessedObservations pre = Preprocess(obs, options_.preprocess);
  if (pre.num_lossy == 0) {
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  const int32_t n = matrix.NumLinks();
  // Step 2: exclude links whose paths are all loss-free; hit ratio for the rest.
  // (The bipartite decomposition of Step 1 is implicit here: the greedy only ever touches
  // links/paths connected to a lossy path, so independent components never interact; we skip
  // materializing them to keep the hot loop simple.)
  std::vector<int32_t> candidates;
  std::vector<double> hit_ratio(static_cast<size_t>(n), 0.0);
  for (int32_t l = 0; l < n; ++l) {
    int64_t valid_through = 0;
    int64_t lossy_through = 0;
    for (PathId p : matrix.PathsThroughDense(l)) {
      const size_t pi = static_cast<size_t>(p);
      valid_through += pre.valid[pi];
      lossy_through += pre.lossy[pi];
    }
    if (valid_through == 0 || lossy_through == 0) {
      continue;
    }
    hit_ratio[static_cast<size_t>(l)] =
        static_cast<double>(lossy_through) / static_cast<double>(valid_through);
    // Step 4's filter: only links with hit ratio above the threshold are candidates.
    if (hit_ratio[static_cast<size_t>(l)] > options_.hit_ratio_threshold) {
      candidates.push_back(l);
    }
  }

  // Steps 3-5: greedily pick the candidate explaining the most unexplained lost packets.
  std::vector<uint8_t> explained(obs.size(), 0);
  std::vector<int64_t> score(static_cast<size_t>(n), 0);
  auto recompute_score = [&](int32_t l) {
    int64_t s = 0;
    for (PathId p : matrix.PathsThroughDense(l)) {
      const size_t pi = static_cast<size_t>(p);
      if (pre.lossy[pi] && !explained[pi]) {
        s += obs[pi].lost;
      }
    }
    score[static_cast<size_t>(l)] = s;
  };
  for (int32_t l : candidates) {
    recompute_score(l);
  }

  int64_t remaining_lossy = pre.num_lossy;
  std::vector<uint8_t> chosen(static_cast<size_t>(n), 0);
  while (remaining_lossy > 0) {
    // Max explained losses; ties broken by hit ratio — when a bad link and an innocent
    // neighbor explain the same lossy paths, the bad link's clean-path share is lower.
    int32_t best = -1;
    int64_t best_score = 0;
    double best_hit = 0.0;
    for (int32_t l : candidates) {
      if (chosen[static_cast<size_t>(l)]) {
        continue;
      }
      const int64_t s = score[static_cast<size_t>(l)];
      const double h = hit_ratio[static_cast<size_t>(l)];
      if (s > best_score || (s == best_score && s > 0 && h > best_hit)) {
        best = l;
        best_score = s;
        best_hit = h;
      }
    }
    if (best < 0) {
      break;  // remaining losses not explainable by any above-threshold link
    }
    chosen[static_cast<size_t>(best)] = 1;

    // Loss-rate estimate over the paths this link explains, then retire those paths.
    int64_t sent_through = 0;
    int64_t lost_through = 0;
    int64_t newly_explained = 0;
    for (PathId p : matrix.PathsThroughDense(best)) {
      const size_t pi = static_cast<size_t>(p);
      if (!pre.valid[pi]) {
        continue;
      }
      sent_through += obs[pi].sent;
      lost_through += obs[pi].lost;
      if (pre.lossy[pi] && !explained[pi]) {
        explained[pi] = 1;
        newly_explained += obs[pi].lost;
        --remaining_lossy;
      }
    }
    SuspectLink suspect;
    suspect.link = matrix.links().Link(best);
    suspect.hit_ratio = hit_ratio[static_cast<size_t>(best)];
    suspect.explained_losses = newly_explained;
    suspect.estimated_loss_rate = InvertRoundTripLoss(
        sent_through == 0 ? 0.0
                          : static_cast<double>(lost_through) / static_cast<double>(sent_through));
    result.links.push_back(suspect);

    // Only links sharing a newly-explained path changed; with the modest fan-outs of a DCN
    // probe matrix a full candidate rescore is cheap and simpler.
    for (int32_t l : candidates) {
      if (!chosen[static_cast<size_t>(l)]) {
        recompute_score(l);
      }
    }
  }

  // Redundancy elimination: under concurrent failures the greedy can pick an innocent
  // "bridge" link first because it spans lossy paths of two real failures; once those real
  // links are chosen the bridge explains nothing of its own. Drop suspects (weakest first)
  // whose every lossy path is also covered by another remaining suspect.
  if (result.links.size() > 1) {
    std::vector<int32_t> cover_count(obs.size(), 0);
    auto lossy_paths_of = [&](LinkId link) {
      std::vector<size_t> paths;
      for (PathId p : matrix.PathsThrough(link)) {
        if (pre.lossy[static_cast<size_t>(p)]) {
          paths.push_back(static_cast<size_t>(p));
        }
      }
      return paths;
    };
    for (const SuspectLink& s : result.links) {
      for (size_t p : lossy_paths_of(s.link)) {
        ++cover_count[p];
      }
    }
    std::sort(result.links.begin(), result.links.end(), pll_reference::WeakerSuspect);
    std::vector<SuspectLink> kept;
    for (const SuspectLink& s : result.links) {
      const std::vector<size_t> paths = lossy_paths_of(s.link);
      bool redundant = !paths.empty();
      for (size_t p : paths) {
        if (cover_count[p] < 2) {
          redundant = false;
          break;
        }
      }
      if (redundant) {
        for (size_t p : paths) {
          --cover_count[p];
        }
      } else {
        kept.push_back(s);
      }
    }
    result.links = std::move(kept);
  }

  std::sort(result.links.begin(), result.links.end(), pll_reference::StrongerSuspect);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace detector

#endif  // TESTS_PLL_REFERENCE_H_

#include "src/localize/pll.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/timer.h"

namespace detector {
namespace {

// Strict total orders for suspect lists: ties on explained losses are broken by link id, so
// the merged output of per-component scoring does not depend on the order components were
// processed in.
bool WeakerSuspect(const SuspectLink& a, const SuspectLink& b) {
  return a.explained_losses != b.explained_losses ? a.explained_losses < b.explained_losses
                                                  : a.link < b.link;
}

bool StrongerSuspect(const SuspectLink& a, const SuspectLink& b) {
  return a.explained_losses != b.explained_losses ? a.explained_losses > b.explained_losses
                                                  : a.link < b.link;
}

}  // namespace

double InvertRoundTripLoss(double path_loss_ratio) {
  const double clamped = std::clamp(path_loss_ratio, 0.0, 1.0);
  return 1.0 - std::sqrt(1.0 - clamped);
}

LocalizeResult PllLocalizer::Localize(const ProbeMatrix& matrix, const Observations& obs) const {
  return LocalizeView(matrix, obs);
}

LocalizeResult PllLocalizer::LocalizeView(const ProbeMatrix& matrix, ObservationView obs) const {
  WallTimer timer;
  CHECK_EQ(obs.size(), matrix.NumPaths());
  std::vector<PathId> paths(obs.size());
  std::iota(paths.begin(), paths.end(), PathId{0});
  std::vector<int32_t> links(static_cast<size_t>(matrix.NumLinks()));
  std::iota(links.begin(), links.end(), 0);
  PllIncrementalState scratch;
  SizeScratch(matrix, scratch);
  LocalizeResult result;
  RescoreComponent(matrix, obs, paths, links, scratch, result.links);
  std::sort(result.links.begin(), result.links.end(), StrongerSuspect);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

void PllLocalizer::SizeScratch(const ProbeMatrix& matrix, PllIncrementalState& state) {
  const size_t num_paths = matrix.NumPaths();
  const size_t num_links = static_cast<size_t>(matrix.NumLinks());
  state.valid.assign(num_paths, 0);
  state.lossy.assign(num_paths, 0);
  state.hit_ratio.assign(num_links, 0.0);
  state.score.assign(num_links, 0);
  state.chosen.assign(num_links, 0);
  state.explained.assign(num_paths, 0);
}

void PllLocalizer::RescoreComponent(const ProbeMatrix& matrix, ObservationView obs,
                                    std::span<const PathId> paths,
                                    std::span<const int32_t> links,
                                    PllIncrementalState& state,
                                    std::vector<SuspectLink>& out) const {
  out.clear();
  // Preprocessing (§5.1) on this component's paths — the per-path rule Preprocess applies —
  // plus the explained-paths reset for the greedy below. (Step 1, the decomposition, is the
  // caller's choice of `paths` and `links`.)
  int64_t remaining_lossy = 0;
  for (const PathId p : paths) {
    const size_t pi = static_cast<size_t>(p);
    state.valid[pi] = IsValidPath(obs[pi]) ? 1 : 0;
    state.lossy[pi] = IsLossyPath(obs[pi], options_.preprocess) ? 1 : 0;
    state.explained[pi] = 0;
    remaining_lossy += state.lossy[pi];
  }
  if (remaining_lossy == 0) {
    return;
  }

  // Step 2: exclude links whose paths are all loss-free; hit ratio for the rest, and step 4's
  // filter: only links with hit ratio above the threshold are candidates.
  std::vector<int32_t> candidates;
  for (const int32_t l : links) {
    const size_t li = static_cast<size_t>(l);
    state.hit_ratio[li] = 0.0;
    state.chosen[li] = 0;
    int64_t valid_through = 0;
    int64_t lossy_through = 0;
    for (const PathId p : matrix.PathsThroughDense(l)) {
      const size_t pi = static_cast<size_t>(p);
      valid_through += state.valid[pi];
      lossy_through += state.lossy[pi];
    }
    if (valid_through == 0 || lossy_through == 0) {
      continue;
    }
    state.hit_ratio[li] =
        static_cast<double>(lossy_through) / static_cast<double>(valid_through);
    if (state.hit_ratio[li] > options_.hit_ratio_threshold) {
      candidates.push_back(l);
    }
  }

  auto recompute_score = [&](int32_t l) {
    int64_t s = 0;
    for (const PathId p : matrix.PathsThroughDense(l)) {
      const size_t pi = static_cast<size_t>(p);
      if (state.lossy[pi] && !state.explained[pi]) {
        s += obs[pi].lost;
      }
    }
    state.score[static_cast<size_t>(l)] = s;
  };
  for (const int32_t l : candidates) {
    recompute_score(l);
  }

  // Steps 3-5: greedily pick the candidate explaining the most unexplained lost packets.
  while (remaining_lossy > 0) {
    // Max explained losses; ties broken by hit ratio — when a bad link and an innocent
    // neighbor explain the same lossy paths, the bad link's clean-path share is lower.
    int32_t best = -1;
    int64_t best_score = 0;
    double best_hit = 0.0;
    for (const int32_t l : candidates) {
      if (state.chosen[static_cast<size_t>(l)]) {
        continue;
      }
      const int64_t s = state.score[static_cast<size_t>(l)];
      const double h = state.hit_ratio[static_cast<size_t>(l)];
      if (s > best_score || (s == best_score && s > 0 && h > best_hit)) {
        best = l;
        best_score = s;
        best_hit = h;
      }
    }
    if (best < 0) {
      break;  // remaining losses not explainable by any above-threshold link
    }
    state.chosen[static_cast<size_t>(best)] = 1;

    // Loss-rate estimate over the paths this link explains, then retire those paths.
    int64_t sent_through = 0;
    int64_t lost_through = 0;
    int64_t newly_explained = 0;
    for (const PathId p : matrix.PathsThroughDense(best)) {
      const size_t pi = static_cast<size_t>(p);
      if (!state.valid[pi]) {
        continue;
      }
      sent_through += obs[pi].sent;
      lost_through += obs[pi].lost;
      if (state.lossy[pi] && !state.explained[pi]) {
        state.explained[pi] = 1;
        newly_explained += obs[pi].lost;
        --remaining_lossy;
      }
    }
    SuspectLink suspect;
    suspect.link = matrix.links().Link(best);
    suspect.hit_ratio = state.hit_ratio[static_cast<size_t>(best)];
    suspect.explained_losses = newly_explained;
    suspect.estimated_loss_rate = InvertRoundTripLoss(
        sent_through == 0 ? 0.0
                          : static_cast<double>(lost_through) / static_cast<double>(sent_through));
    out.push_back(suspect);

    for (const int32_t l : candidates) {
      if (!state.chosen[static_cast<size_t>(l)]) {
        recompute_score(l);
      }
    }
  }

  // Redundancy elimination: under concurrent failures the greedy can pick an innocent
  // "bridge" link first because it spans lossy paths of two real failures; once those real
  // links are chosen the bridge explains nothing of its own. Drop suspects (weakest first)
  // whose every lossy path is also covered by another remaining suspect. Confined to this
  // component: a suspect's lossy paths never span components.
  if (out.size() > 1) {
    std::vector<int64_t> cover_count(obs.size(), 0);  // sparse in practice: component paths
    auto lossy_paths_of = [&](LinkId link) {
      std::vector<size_t> lossy_paths;
      for (const PathId p : matrix.PathsThrough(link)) {
        if (state.lossy[static_cast<size_t>(p)]) {
          lossy_paths.push_back(static_cast<size_t>(p));
        }
      }
      return lossy_paths;
    };
    for (const SuspectLink& s : out) {
      for (const size_t p : lossy_paths_of(s.link)) {
        ++cover_count[p];
      }
    }
    std::sort(out.begin(), out.end(), WeakerSuspect);
    std::vector<SuspectLink> kept;
    for (const SuspectLink& s : out) {
      const std::vector<size_t> lossy_paths = lossy_paths_of(s.link);
      bool redundant = !lossy_paths.empty();
      for (const size_t p : lossy_paths) {
        if (cover_count[p] < 2) {
          redundant = false;
          break;
        }
      }
      if (redundant) {
        for (const size_t p : lossy_paths) {
          --cover_count[p];
        }
      } else {
        kept.push_back(s);
      }
    }
    out = std::move(kept);
  }
}

LocalizeResult PllLocalizer::LocalizeIncremental(const ProbeMatrix& matrix, ObservationView obs,
                                                 std::span<const PathId> dirty_slots,
                                                 bool all_dirty,
                                                 PllIncrementalState& state) const {
  WallTimer timer;
  CHECK_EQ(obs.size(), matrix.NumPaths());
  Decomposition& part = state.decomposition;
  if (!state.structure_valid || part.component_of_path.size() != matrix.NumPaths() ||
      part.component_of_link.size() != static_cast<size_t>(matrix.NumLinks())) {
    part = DecomposePathLinkGraph(matrix.paths(), matrix.links());
    state.structure_valid = true;
    all_dirty = true;
  }
  const size_t num_components = part.components.size();
  if (all_dirty) {
    state.verdicts.assign(num_components, {});
    SizeScratch(matrix, state);
  }

  std::vector<uint8_t> component_dirty(num_components, all_dirty ? 1 : 0);
  if (!all_dirty) {
    for (const PathId slot : dirty_slots) {
      if (slot >= 0 && static_cast<size_t>(slot) < part.component_of_path.size()) {
        const int32_t c = part.component_of_path[static_cast<size_t>(slot)];
        if (c >= 0) {
          component_dirty[static_cast<size_t>(c)] = 1;
        }
      }
    }
  }

  LocalizeResult result;
  for (size_t c = 0; c < num_components; ++c) {
    if (component_dirty[c]) {
      RescoreComponent(matrix, obs, part.components[c].path_ids, part.components[c].dense_links,
                       state, state.verdicts[c]);
    }
    result.links.insert(result.links.end(), state.verdicts[c].begin(),
                        state.verdicts[c].end());
  }
  std::sort(result.links.begin(), result.links.end(), StrongerSuspect);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace detector

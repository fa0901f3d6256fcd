#include "src/pmc/incremental.h"

#include <algorithm>
#include <queue>

#include "src/common/timer.h"
#include "src/pmc/decomposition.h"
#include "src/pmc/partition.h"

namespace detector {

// A component's live links as a local dense domain [0, m), and the partition the component's
// selected paths induce over it (replayed in slot order; tracked only at beta >= 1, and always
// resolved at m == 0).
struct IncrementalPmc::LiveDomain {
  std::vector<int32_t> local_to_dense;  // ascending
  std::vector<int32_t> local_of;        // dense link -> local id, -1 outside the domain
  PartitionState part;
};

IncrementalPmc::IncrementalPmc(const Topology& topo, PathStore candidates, PmcOptions options)
    : topo_(topo),
      options_(options),
      candidates_(std::move(candidates)),
      links_(LinkIndex::ForMonitored(topo)),
      liveness_(candidates_, topo.NumLinks()) {
  const size_t n = static_cast<size_t>(links_.num_links());
  live_.assign(n, 1);
  w_.assign(n, 0);

  Decomposition decomp = DecomposePathLinkGraph(candidates_, links_);
  PmcOptions solve_options = options_;
  solve_options.build_matrix = false;  // BuildMatrix() renders the selection from the slots
  PmcResult result = BuildProbeMatrixFromCandidates(
      topo_, candidates_, solve_options, links_, options_.decompose ? &decomp : nullptr);
  initial_stats_ = result.stats;

  // The decomposition stays on as the repair scopes, minus its per-component candidate lists.
  // Taken before AdoptSelection so weight bookkeeping can exclude statically uncoverable links
  // (mirroring PmcStats::alpha_satisfied).
  for (Decomposition::Component& comp : decomp.components) {
    component_links_.push_back(std::move(comp.dense_links));
  }
  comp_of_link_ = std::move(decomp.component_of_link);
  comp_of_path_ = std::move(decomp.component_of_path);
  AdoptSelection(result.selected_ids, result.stats.fully_resolved);
}

void IncrementalPmc::AdoptSelection(const std::vector<PathId>& candidate_ids,
                                    bool solver_fully_resolved) {
  slots_ = candidate_ids;
  free_slots_.clear();
  slot_of_.clear();
  slot_of_.reserve(candidate_ids.size());
  selected_.assign(candidates_.size(), 0);
  num_selected_ = candidate_ids.size();
  std::fill(w_.begin(), w_.end(), 0);
  for (size_t s = 0; s < slots_.size(); ++s) {
    const PathId pid = slots_[s];
    selected_[static_cast<size_t>(pid)] = 1;
    slot_of_.emplace(pid, static_cast<PathId>(s));
    for (const LinkId link : candidates_.Links(pid)) {
      const int32_t dense = links_.Dense(link);
      if (dense >= 0) {
        ++w_[static_cast<size_t>(dense)];
      }
    }
  }
  num_undercovered_ = 0;
  if (options_.alpha > 0) {
    for (size_t d = 0; d < w_.size(); ++d) {
      if (live_[d] && comp_of_link_[d] >= 0 && w_[d] < options_.alpha) {
        ++num_undercovered_;
      }
    }
  }
  // The solver just drove every component's partition; when it reports full resolution the
  // replay would only reconfirm it, so skip the (Table-2-dominant) split machinery and adopt
  // the verdict. Only a failed resolution needs the per-component replay to learn which
  // components repair should keep chasing.
  if (solver_fully_resolved) {
    comp_resolved_.assign(component_links_.size(), 1);
  } else {
    RefreshComponentResolution();
  }
}

void IncrementalPmc::SetLinkLive(int32_t dense, bool live) {
  const size_t d = static_cast<size_t>(dense);
  if ((live_[d] != 0) == live) {
    return;
  }
  live_[d] = live ? 1 : 0;
  if (options_.alpha > 0 && comp_of_link_[d] >= 0 && w_[d] < options_.alpha) {
    num_undercovered_ += live ? 1 : -1;
  }
}

void IncrementalPmc::Select(PathId candidate, std::vector<PathId>* added_slots) {
  DCHECK(!selected_[static_cast<size_t>(candidate)]);
  selected_[static_cast<size_t>(candidate)] = 1;
  for (const LinkId link : candidates_.Links(candidate)) {
    const int32_t dense = links_.Dense(link);
    if (dense < 0) {
      continue;
    }
    const size_t d = static_cast<size_t>(dense);
    ++w_[d];
    if (options_.alpha > 0 && live_[d] && comp_of_link_[d] >= 0 && w_[d] == options_.alpha) {
      --num_undercovered_;
    }
  }
  PathId slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[static_cast<size_t>(slot)] = candidate;
  } else {
    slot = static_cast<PathId>(slots_.size());
    slots_.push_back(candidate);
  }
  slot_of_.emplace(candidate, slot);
  ++num_selected_;
  if (added_slots != nullptr) {
    added_slots->push_back(slot);
  }
}

void IncrementalPmc::Unselect(PathId candidate, std::vector<PathId>* removed_slots) {
  auto it = slot_of_.find(candidate);
  CHECK(it != slot_of_.end()) << "candidate " << candidate << " is not selected";
  const PathId slot = it->second;
  slots_[static_cast<size_t>(slot)] = -1;
  free_slots_.push_back(slot);
  slot_of_.erase(it);
  selected_[static_cast<size_t>(candidate)] = 0;
  --num_selected_;
  for (const LinkId link : candidates_.Links(candidate)) {
    const int32_t dense = links_.Dense(link);
    if (dense < 0) {
      continue;
    }
    const size_t d = static_cast<size_t>(dense);
    --w_[d];
    if (options_.alpha > 0 && live_[d] && comp_of_link_[d] >= 0 &&
        w_[d] == options_.alpha - 1) {
      ++num_undercovered_;
    }
  }
  if (removed_slots != nullptr) {
    removed_slots->push_back(slot);
  }
}

IncrementalPmc::LiveDomain IncrementalPmc::ReplayComponent(int32_t comp) const {
  std::vector<int32_t> local_to_dense;
  std::vector<int32_t> local_of(w_.size(), -1);
  for (const int32_t d : component_links_[static_cast<size_t>(comp)]) {
    if (live_[static_cast<size_t>(d)]) {
      local_of[static_cast<size_t>(d)] = static_cast<int32_t>(local_to_dense.size());
      local_to_dense.push_back(d);
    }
  }
  const int32_t m = static_cast<int32_t>(local_to_dense.size());
  LiveDomain domain{std::move(local_to_dense), std::move(local_of),
                    PartitionState(m, options_.beta)};
  if (options_.beta < 1 || m == 0) {
    return domain;
  }
  // Splitting a resolved partition changes nothing, so the replay stops once it resolves.
  std::vector<int32_t> local_links;
  for (const PathId pid : slots_) {
    if (domain.part.resolved()) {
      break;
    }
    if (pid < 0 || comp_of_path_[static_cast<size_t>(pid)] != comp) {
      continue;
    }
    LocalLinksOf(domain, pid, local_links);
    domain.part.ApplySplit(local_links);
  }
  return domain;
}

void IncrementalPmc::LocalLinksOf(const LiveDomain& domain, PathId candidate,
                                  std::vector<int32_t>& out) const {
  out.clear();
  for (const LinkId link : candidates_.Links(candidate)) {
    const int32_t dense = links_.Dense(link);
    if (dense >= 0) {
      DCHECK(domain.local_of[static_cast<size_t>(dense)] >= 0);
      out.push_back(domain.local_of[static_cast<size_t>(dense)]);
    }
  }
}

void IncrementalPmc::RefreshComponentResolution() {
  comp_resolved_.assign(component_links_.size(), 1);
  if (options_.beta < 1) {
    return;
  }
  for (size_t c = 0; c < component_links_.size(); ++c) {
    comp_resolved_[c] = ReplayComponent(static_cast<int32_t>(c)).part.resolved() ? 1 : 0;
  }
}

// Greedy repair of one component over its live links: re-raises links below alpha coverage
// and re-resolves the partition sets the dropped paths were separating. Each pick is
// selected and given its slot at once.
void IncrementalPmc::RepairComponent(int32_t comp, DeltaOutcome& out) {
  ChurnRepairStats& stats = out.stats;
  const bool track_sets = options_.beta >= 1;
  LiveDomain domain = ReplayComponent(comp);
  const std::vector<int32_t>& local_to_dense = domain.local_to_dense;
  PartitionState& part = domain.part;
  const int32_t m = static_cast<int32_t>(local_to_dense.size());
  if (m == 0) {
    comp_resolved_[static_cast<size_t>(comp)] = 1;
    return;
  }
  std::vector<int32_t> scratch_links;

  // Repair targets: live links below alpha coverage, plus every physical constituent of an
  // unresolved partition set (those are the only links a useful candidate can traverse).
  std::vector<int32_t> under;  // locals below alpha
  std::vector<uint8_t> target(static_cast<size_t>(m), 0);
  for (int32_t l = 0; l < m; ++l) {
    if (options_.alpha > 0 &&
        w_[static_cast<size_t>(local_to_dense[static_cast<size_t>(l)])] < options_.alpha) {
      under.push_back(l);
      target[static_cast<size_t>(l)] = 1;
    }
  }
  if (track_sets && !part.resolved()) {
    auto unresolved = [&](uint64_t rank) {
      return part.set_size[static_cast<size_t>(part.set_id[rank])] > 1;
    };
    for (int32_t i = 0; i < m; ++i) {
      if (unresolved(part.space.RankSingle(i))) {
        target[static_cast<size_t>(i)] = 1;
      }
    }
    if (options_.beta >= 2) {
      for (int32_t i = 0; i < m; ++i) {
        for (int32_t j = i + 1; j < m; ++j) {
          if (unresolved(part.space.RankPair(i, j))) {
            target[static_cast<size_t>(i)] = 1;
            target[static_cast<size_t>(j)] = 1;
          }
        }
      }
    }
    if (options_.beta >= 3) {
      for (int32_t i = 0; i < m; ++i) {
        for (int32_t j = i + 1; j < m; ++j) {
          for (int32_t k = j + 1; k < m; ++k) {
            if (unresolved(part.space.RankTriple(i, j, k))) {
              target[static_cast<size_t>(i)] = 1;
              target[static_cast<size_t>(j)] = 1;
              target[static_cast<size_t>(k)] = 1;
            }
          }
        }
      }
    }
  }

  const size_t initial_under = under.size();
  auto remaining_under = [&]() {
    size_t count = 0;
    for (const int32_t l : under) {
      if (w_[static_cast<size_t>(local_to_dense[static_cast<size_t>(l)])] < options_.alpha) {
        ++count;
      }
    }
    return count;
  };
  auto targets_met = [&]() {
    return remaining_under() == 0 && (!track_sets || part.resolved());
  };

  if (targets_met()) {
    comp_resolved_[static_cast<size_t>(comp)] = 1;
    return;
  }

  // Candidate pool: alive, unselected paths through any target link.
  std::vector<PathId> pool;
  for (int32_t l = 0; l < m; ++l) {
    if (!target[static_cast<size_t>(l)]) {
      continue;
    }
    const LinkId global = links_.Link(local_to_dense[static_cast<size_t>(l)]);
    for (const PathId pid : liveness_.PathsThrough(global)) {
      if (liveness_.IsAlive(pid) && !selected_[static_cast<size_t>(pid)]) {
        pool.push_back(pid);
      }
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  stats.pool_candidates += pool.size();

  // Local CSR over the pool.
  std::vector<uint64_t> pool_offsets;
  std::vector<int32_t> pool_links;
  pool_offsets.reserve(pool.size() + 1);
  pool_offsets.push_back(0);
  for (const PathId pid : pool) {
    LocalLinksOf(domain, pid, scratch_links);
    pool_links.insert(pool_links.end(), scratch_links.begin(), scratch_links.end());
    pool_offsets.push_back(pool_links.size());
  }
  auto pool_links_of = [&](size_t i) {
    return std::span<const int32_t>(pool_links.data() + pool_offsets[i],
                                    pool_offsets[i + 1] - pool_offsets[i]);
  };

  struct Eval {
    int64_t score;
    int64_t gain;
  };
  auto evaluate = [&](size_t i) {
    ++stats.score_evaluations;
    const auto links = pool_links_of(i);
    int64_t sum_w = 0;
    int64_t coverage_gain = 0;
    for (const int32_t l : links) {
      const int32_t wl = w_[static_cast<size_t>(local_to_dense[static_cast<size_t>(l)])];
      if (options_.evenness_term) {
        sum_w += wl;
      }
      if (wl < options_.alpha) {
        ++coverage_gain;
      }
    }
    int64_t split_gain = 0;
    int64_t distinct_sets = 1;
    if (track_sets) {
      part.Tally(links);
      distinct_sets = static_cast<int64_t>(part.distinct.size());
      for (const int32_t id : part.distinct) {
        if (part.count_in_path[static_cast<size_t>(id)] < part.set_size[static_cast<size_t>(id)]) {
          ++split_gain;
        }
      }
    }
    return Eval{sum_w - distinct_sets, split_gain + coverage_gain};
  };

  // Seed the heap with real scores (the repair pool is small; one upfront evaluation each
  // avoids the full solver's pessimistic equal-score start where the heap degenerates to
  // path-id order), then run the usual CELF-style lazy loop.
  using Entry = std::pair<int64_t, int32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool_offsets[i + 1] == pool_offsets[i]) {
      continue;
    }
    const Eval e = evaluate(i);
    if (e.gain > 0) {
      heap.emplace(e.score, static_cast<int32_t>(i));
    }
  }

  while (!targets_met() && !heap.empty()) {
    const auto [stale_score, i] = heap.top();
    heap.pop();
    const Eval e = evaluate(static_cast<size_t>(i));
    if (e.gain == 0) {
      continue;
    }
    if (!heap.empty() && e.score > heap.top().first) {
      heap.emplace(e.score, i);
      continue;
    }
    if (track_sets) {
      part.ApplySplit(pool_links_of(static_cast<size_t>(i)));
    }
    Select(pool[static_cast<size_t>(i)], &out.added_slots);
    ++stats.added_paths;
  }

  const size_t still_under = remaining_under();
  stats.repaired_links += initial_under - still_under;
  stats.uncoverable_live_links += static_cast<int32_t>(still_under);
  comp_resolved_[static_cast<size_t>(comp)] = (!track_sets || part.resolved()) ? 1 : 0;
}

IncrementalPmc::DeltaOutcome IncrementalPmc::ApplyDelta(const LinkStateOverlay::Effect& effect) {
  WallTimer timer;
  DeltaOutcome out;

  std::vector<int32_t> dirty_comps;
  auto mark_dirty = [&](int32_t comp) {
    if (comp >= 0) {
      dirty_comps.push_back(comp);
    }
  };

  // 1. Deaths: drop every selected path through a dying link, then invalidate candidates.
  for (const LinkId link : effect.now_dead) {
    for (const PathId pid : liveness_.PathsThrough(link)) {
      if (selected_[static_cast<size_t>(pid)]) {
        mark_dirty(comp_of_path_[static_cast<size_t>(pid)]);
        Unselect(pid, &out.removed_slots);
        ++out.stats.dropped_paths;
      }
    }
    liveness_.LinkDown(link);
    const int32_t dense = links_.Dense(link);
    if (dense >= 0) {
      SetLinkLive(dense, false);
      mark_dirty(comp_of_link_[static_cast<size_t>(dense)]);
    }
  }

  // 2. Revivals: candidates through the link become usable again; the link itself re-enters
  // the coverage/partition targets of its component.
  for (const LinkId link : effect.now_live) {
    liveness_.LinkUp(link);
    const int32_t dense = links_.Dense(link);
    if (dense >= 0) {
      SetLinkLive(dense, true);
      mark_dirty(comp_of_link_[static_cast<size_t>(dense)]);
    }
  }

  // 3. Greedy repair, restricted to the touched components, in ascending component id (the
  // order fixes which vacated slots each component's picks reuse).
  std::sort(dirty_comps.begin(), dirty_comps.end());
  dirty_comps.erase(std::unique(dirty_comps.begin(), dirty_comps.end()), dirty_comps.end());
  out.stats.touched_components = static_cast<int>(dirty_comps.size());
  for (const int32_t comp : dirty_comps) {
    RepairComponent(comp, out);
  }

  out.stats.alpha_satisfied = AlphaSatisfied();
  out.stats.fully_resolved = std::all_of(comp_resolved_.begin(), comp_resolved_.end(),
                                         [](uint8_t r) { return r != 0; });
  std::sort(out.removed_slots.begin(), out.removed_slots.end());
  std::sort(out.added_slots.begin(), out.added_slots.end());
  out.stats.seconds = timer.ElapsedSeconds();
  return out;
}

PmcStats IncrementalPmc::FullResolve() {
  WallTimer timer;
  std::vector<PathId> kept_ids;
  const PathStore alive = CompactAlive(candidates_, liveness_, &kept_ids);
  PmcOptions solve_options = options_;
  solve_options.build_matrix = false;
  PmcResult result = BuildProbeMatrixFromCandidates(
      topo_, alive, solve_options, LinkIndex::ForLinks(topo_, LiveMonitoredLinks()));
  std::vector<PathId> selected;
  selected.reserve(result.selected_ids.size());
  for (const PathId compact_id : result.selected_ids) {
    selected.push_back(kept_ids[static_cast<size_t>(compact_id)]);
  }
  std::sort(selected.begin(), selected.end());
  AdoptSelection(selected, result.stats.fully_resolved);
  result.stats.seconds = timer.ElapsedSeconds();
  return result.stats;
}

std::vector<LinkId> IncrementalPmc::LiveMonitoredLinks() const {
  std::vector<LinkId> live;
  for (int32_t d = 0; d < links_.num_links(); ++d) {
    if (live_[static_cast<size_t>(d)]) {
      live.push_back(links_.Link(d));
    }
  }
  return live;
}

std::vector<PathId> IncrementalPmc::SelectedCandidateIds() const {
  std::vector<PathId> ids;
  ids.reserve(num_selected_);
  for (const PathId pid : slots_) {
    if (pid >= 0) {
      ids.push_back(pid);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool IncrementalPmc::AlphaSatisfied() const {
  if (options_.alpha == 0) {
    return true;  // no coverage requirement — mirrors PmcStats::alpha_satisfied
  }
  if (num_undercovered_ > 0) {
    return false;
  }
  // Statically uncoverable links break alpha only while live (a dead one needs no coverage).
  for (size_t d = 0; d < w_.size(); ++d) {
    if (live_[d] && comp_of_link_[d] < 0) {
      return false;
    }
  }
  return true;
}

ProbeMatrix IncrementalPmc::BuildMatrix() const {
  PathStore paths;
  paths.Reserve(slots_.size(), num_selected_ * 4);
  for (const PathId pid : slots_) {
    if (pid >= 0) {
      paths.Add(candidates_.src(pid), candidates_.dst(pid), candidates_.Links(pid));
    } else {
      paths.Add(kInvalidNode, kInvalidNode, {});
    }
  }
  return ProbeMatrix(std::move(paths), links_);
}

ProbeMatrix IncrementalPmc::BuildLiveMatrix() const {
  const std::vector<PathId> ids = SelectedCandidateIds();
  PathStore paths;
  paths.Reserve(ids.size(), ids.size() * 4);
  paths.AppendFrom(candidates_, ids);
  return ProbeMatrix(std::move(paths), LinkIndex::ForLinks(topo_, LiveMonitoredLinks()));
}

}  // namespace detector

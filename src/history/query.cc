#include "src/history/query.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/detector/diagnoser.h"

namespace detector {

QueryEngine QueryEngine::FromDir(const std::string& dir, const ReportKey& key) {
  WindowLogReadResult read = ReadWindowLog(dir, key);
  QueryEngine engine(std::move(read.windows));
  read.windows.clear();
  engine.read_result_ = std::move(read);
  return engine;
}

QueryEngine::QueryEngine(std::vector<SealedWindow> windows) : windows_(std::move(windows)) {
  // Chronological order regardless of segment-file interleaving after partial retention.
  std::sort(windows_.begin(), windows_.end(),
            [](const SealedWindow& a, const SealedWindow& b) {
              return a.window_index < b.window_index;
            });
}

std::vector<QueryEngine::TimelinePoint> QueryEngine::LinkTimeline(LinkId link,
                                                                  size_t last_n) const {
  std::vector<TimelinePoint> out;
  for (size_t i = FirstOfLastN(last_n); i < windows_.size(); ++i) {
    const SealedBoundary* final_boundary = FinalBoundary(windows_[i]);
    TimelinePoint point;
    point.window_index = windows_[i].window_index;
    if (final_boundary != nullptr) {
      for (const SuspectLink& s : final_boundary->suspects) {
        if (s.link == link) {
          point.suspected = true;
          point.estimated_loss_rate = s.estimated_loss_rate;
          point.hit_ratio = s.hit_ratio;
          point.explained_losses = s.explained_losses;
          break;
        }
      }
    }
    out.push_back(point);
  }
  return out;
}

std::vector<QueryEngine::Episode> QueryEngine::LinkEpisodes(LinkId link, size_t last_n) const {
  std::vector<Episode> out;
  Episode current;
  bool open = false;
  uint64_t prev_index = 0;
  for (const TimelinePoint& point : LinkTimeline(link, last_n)) {
    // A gap in the retained indices (bounded retention dropped segments) closes an episode:
    // we cannot claim the link stayed suspect across windows we no longer have.
    if (open && (!point.suspected || point.window_index != prev_index + 1)) {
      out.push_back(current);
      open = false;
    }
    if (point.suspected) {
      if (!open) {
        current = Episode{point.window_index, point.window_index, 0, 0.0};
        open = true;
      }
      current.last_window = point.window_index;
      ++current.windows;
      current.max_estimated_loss_rate =
          std::max(current.max_estimated_loss_rate, point.estimated_loss_rate);
    }
    prev_index = point.window_index;
  }
  if (open) {
    out.push_back(current);
  }
  return out;
}

std::vector<QueryEngine::LinkActivity> QueryEngine::TopLinks(size_t last_n) const {
  std::map<LinkId, LinkActivity> by_link;
  for (size_t i = FirstOfLastN(last_n); i < windows_.size(); ++i) {
    const SealedBoundary* final_boundary = FinalBoundary(windows_[i]);
    if (final_boundary == nullptr) {
      continue;
    }
    for (const SuspectLink& s : final_boundary->suspects) {
      auto [it, inserted] = by_link.try_emplace(s.link);
      LinkActivity& activity = it->second;
      if (inserted) {
        activity.link = s.link;
        activity.first_window = windows_[i].window_index;
      }
      activity.last_window = windows_[i].window_index;
      ++activity.windows_suspected;
      activity.max_estimated_loss_rate =
          std::max(activity.max_estimated_loss_rate, s.estimated_loss_rate);
    }
  }
  std::vector<LinkActivity> out;
  out.reserve(by_link.size());
  for (auto& [link, activity] : by_link) {
    out.push_back(activity);
  }
  std::sort(out.begin(), out.end(), [](const LinkActivity& a, const LinkActivity& b) {
    if (a.windows_suspected != b.windows_suspected) {
      return a.windows_suspected > b.windows_suspected;
    }
    return a.link < b.link;
  });
  return out;
}

std::vector<QueryEngine::AnomalyPoint> QueryEngine::LinkAnomalyTimeline(LinkId link,
                                                                        size_t last_n) const {
  std::vector<AnomalyPoint> out;
  for (size_t i = FirstOfLastN(last_n); i < windows_.size(); ++i) {
    AnomalyPoint point;
    point.window_index = windows_[i].window_index;
    for (const SealedBoundary& b : windows_[i].boundaries) {
      for (const LinkAnomaly& an : b.anomalies) {
        if (an.link != link) {
          continue;
        }
        point.flagged = true;
        point.signal |= an.signal;
        point.max_score = std::max(point.max_score, an.score);
        point.max_sustained = std::max(point.max_sustained, an.sustained);
        ++point.boundaries_flagged;
      }
    }
    out.push_back(point);
  }
  return out;
}

std::vector<QueryEngine::AnomalyActivity> QueryEngine::TopAnomalies(size_t last_n) const {
  std::map<LinkId, AnomalyActivity> by_link;
  for (size_t i = FirstOfLastN(last_n); i < windows_.size(); ++i) {
    std::vector<LinkId> seen_this_window;
    for (const SealedBoundary& b : windows_[i].boundaries) {
      for (const LinkAnomaly& an : b.anomalies) {
        auto [it, inserted] = by_link.try_emplace(an.link);
        AnomalyActivity& activity = it->second;
        if (inserted) {
          activity.link = an.link;
          activity.first_window = windows_[i].window_index;
        }
        activity.last_window = windows_[i].window_index;
        activity.signal |= an.signal;
        activity.max_score = std::max(activity.max_score, an.score);
        activity.max_sustained = std::max(activity.max_sustained, an.sustained);
        if (std::find(seen_this_window.begin(), seen_this_window.end(), an.link) ==
            seen_this_window.end()) {
          seen_this_window.push_back(an.link);
          ++activity.windows_flagged;
        }
      }
    }
  }
  std::vector<AnomalyActivity> out;
  out.reserve(by_link.size());
  for (auto& [link, activity] : by_link) {
    out.push_back(activity);
  }
  std::sort(out.begin(), out.end(), [](const AnomalyActivity& a, const AnomalyActivity& b) {
    if (a.windows_flagged != b.windows_flagged) {
      return a.windows_flagged > b.windows_flagged;
    }
    return a.link < b.link;
  });
  return out;
}

namespace {

// The rack bucket a suspect link is charged to: the ToR endpoint's name when the link serves
// a rack directly, the pod for intra-pod fabric links, "core" above that.
std::string RackOf(const Topology& topo, LinkId link) {
  if (link < 0 || static_cast<size_t>(link) >= topo.NumLinks()) {
    return "unknown";
  }
  const Link& l = topo.link(link);
  for (const NodeId end : {l.a, l.b}) {
    const Node& node = topo.node(end);
    if (node.kind == NodeKind::kTor) {
      return node.name;
    }
  }
  const int32_t pod = std::max(topo.node(l.a).pod, topo.node(l.b).pod);
  return pod >= 0 ? "pod-" + std::to_string(pod) : "core";
}

}  // namespace

std::vector<QueryEngine::RackActivity> QueryEngine::RackTimeline(const Topology& topo,
                                                                 size_t last_n) const {
  struct Accum {
    std::vector<uint64_t> windows;  // deduped via sorted-unique below
    std::vector<LinkId> links;
  };
  std::map<std::string, Accum> by_rack;
  for (size_t i = FirstOfLastN(last_n); i < windows_.size(); ++i) {
    const SealedBoundary* final_boundary = FinalBoundary(windows_[i]);
    if (final_boundary == nullptr) {
      continue;
    }
    for (const SuspectLink& s : final_boundary->suspects) {
      Accum& accum = by_rack[RackOf(topo, s.link)];
      accum.windows.push_back(windows_[i].window_index);
      accum.links.push_back(s.link);
    }
  }
  std::vector<RackActivity> out;
  for (auto& [rack, accum] : by_rack) {
    std::sort(accum.windows.begin(), accum.windows.end());
    accum.windows.erase(std::unique(accum.windows.begin(), accum.windows.end()),
                        accum.windows.end());
    std::sort(accum.links.begin(), accum.links.end());
    accum.links.erase(std::unique(accum.links.begin(), accum.links.end()), accum.links.end());
    out.push_back(RackActivity{rack, accum.windows.size(), accum.links.size()});
  }
  std::sort(out.begin(), out.end(), [](const RackActivity& a, const RackActivity& b) {
    if (a.windows_suspected != b.windows_suspected) {
      return a.windows_suspected > b.windows_suspected;
    }
    return a.rack < b.rack;
  });
  return out;
}

std::vector<ReplayedWindow> QueryEngine::Replay(const Topology& topo, const ProbeMatrix& matrix,
                                                const ReplayOptions& options, size_t first,
                                                size_t count) const {
  std::vector<ReplayedWindow> out;
  if (first >= windows_.size()) {
    return out;
  }
  const size_t end = count > windows_.size() - first ? windows_.size() : first + count;
  // Replay sees the logged observations only: the watchdog filter and any churn retractions
  // were already applied to the totals the deltas were cut from, so the replay watchdog is
  // clean and every logged delta folds.
  const Watchdog watchdog(topo);
  for (size_t i = first; i < end; ++i) {
    const SealedWindow& rec = windows_[i];
    ReplayedWindow replayed;
    replayed.window_index = rec.window_index;

    // A fresh Diagnoser per window, exactly like the live one is fresh at each window open
    // (Diagnose() cleared it). Non-consuming diagnoses keep the store accumulating across the
    // window's boundaries, verbatim the live streaming discipline.
    Diagnoser diagnoser(options.pll);
    const size_t num_slots =
        std::max(static_cast<size_t>(rec.num_slots), matrix.NumPaths());
    diagnoser.store().EnsureSlots(num_slots);
    ObservationStore::Shard& shard = diagnoser.store().OpenShard(/*pinger=*/0);

    for (const SealedBoundary& boundary : rec.boundaries) {
      for (const SealedDelta& delta : boundary.deltas) {
        if (delta.slot >= 0 && static_cast<size_t>(delta.slot) < num_slots) {
          shard.RecordPath(delta.slot, kInvalidNode, delta.sent, delta.lost);
        }
      }
      diagnoser.AdvanceSegment(matrix, watchdog);
      ReplayedBoundary rb;
      rb.segment = boundary.segment;
      rb.time_seconds = boundary.time_seconds;
      rb.localization = diagnoser.DiagnoseRunning(matrix, watchdog);
      replayed.boundaries.push_back(std::move(rb));
    }
    out.push_back(std::move(replayed));
  }
  return out;
}

}  // namespace detector

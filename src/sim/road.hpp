// Road network: a multi-lane carriageway along a curved reference line.
//
// The paper's operational domain is CARLA Town 5 — "a highway and multi-lane
// road network" (§V.B). We model the test route as one continuous multi-lane
// road whose reference line is built from straight and circular-arc segments,
// densely sampled so that arc-length parameterisation, lane projection and
// lane-marking queries are cheap and exact enough for control and metrics.
//
// Conventions: lane 0 is the rightmost driving lane; lane centre offsets grow
// to the left. Arc length `s` runs from 0 at the route start.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/vec2.hpp"

namespace rdsim::sim {

/// Lane-marking classes, as reported by CARLA's lane-invasion sensor.
enum class LaneMarking : std::uint8_t {
  kBroken,      ///< between same-direction lanes, legal to cross
  kSolid,       ///< road edge / opposing separation
};

/// Builds the reference line from primitive segments.
class PathBuilder {
 public:
  /// Start pose of the path.
  explicit PathBuilder(util::Pose start = {}, double sample_step_m = 1.0);

  PathBuilder& straight(double length_m);
  /// Circular arc; positive `angle_rad` curves left, radius > 0.
  PathBuilder& arc(double radius_m, double angle_rad);

  /// Sampled points and headings, one per ~sample_step.
  struct Sampled {
    std::vector<util::Vec2> points;
    std::vector<double> headings;
    std::vector<double> arclength;  ///< cumulative, same size
  };
  Sampled build() const;

 private:
  struct Segment {
    bool is_arc{false};
    double length{0.0};
    double radius{0.0};
    double angle{0.0};
  };
  util::Pose start_;
  double step_;
  std::vector<Segment> segments_;
};

/// Result of projecting a world point onto the road.
struct RoadProjection {
  double s{0.0};               ///< arc length along the reference line
  double lateral{0.0};         ///< signed offset, + to the left of lane 0 centre
  int lane{0};                 ///< nearest lane index (clamped to valid lanes)
  double lane_offset{0.0};     ///< lateral offset from that lane's centre
  double heading_error{0.0};   ///< vehicle heading minus road heading (set by caller)
};

class RoadNetwork {
 public:
  /// `reference` is the centreline of lane 0.
  RoadNetwork(PathBuilder::Sampled reference, int lane_count, double lane_width_m);

  int lane_count() const { return lane_count_; }
  double lane_width() const { return lane_width_; }
  double length() const { return arclength_.empty() ? 0.0 : arclength_.back(); }

  /// World pose of (s, lane) on the lane centre; s clamped to [0, length].
  util::Pose sample(double s, int lane) const;
  /// World pose at arbitrary lateral offset from the lane-0 centreline.
  util::Pose sample_offset(double s, double lateral) const;
  double heading_at(double s) const;
  /// Signed curvature at s (1/m, + left).
  double curvature_at(double s) const;

  /// Project a world point onto its nearest reference sample (the first one
  /// on a tie). `hint_s` (if given) starts the search in a window of +/- 60
  /// samples around it (+/- 60 m at scale 1); a result on the window's edge
  /// falls back to the whole line. Both searches prune whole sample blocks
  /// by a bounding circle, so the result equals a linear scan's, bit for bit.
  RoadProjection project(util::Vec2 point, std::optional<double> hint_s = {}) const;

  /// Lateral offset of the centre of lane `lane` from the reference line.
  double lane_center_offset(int lane) const {
    return static_cast<double>(lane) * lane_width_;
  }

  /// The marking to the left/right of `lane`. Right edge of lane 0 and left
  /// edge of the last lane are solid; interior markings are broken.
  LaneMarking marking_left_of(int lane) const {
    return lane == lane_count_ - 1 ? LaneMarking::kSolid : LaneMarking::kBroken;
  }
  LaneMarking marking_right_of(int lane) const {
    return lane == 0 ? LaneMarking::kSolid : LaneMarking::kBroken;
  }

  /// Lateral bounds of the drivable surface relative to the reference line.
  double right_edge_offset() const { return -lane_width_ / 2.0; }
  double left_edge_offset() const {
    return lane_width_ * (static_cast<double>(lane_count_) - 0.5);
  }

 private:
  /// A sample index with its squared distance to the query point.
  struct Candidate {
    std::size_t index;
    double dist_sq;
    /// (distance, index) order: ties go to the lower index, as in a
    /// first-index linear scan. False whenever a distance is NaN.
    bool before(const Candidate& other) const {
      return dist_sq < other.dist_sq || (dist_sq == other.dist_sq && index < other.index);
    }
  };
  /// Bounding circle of a block of consecutive samples. The radius carries a
  /// small slack so that, despite rounding, no sample's computed squared
  /// distance to a query falls below the bound.
  struct Circle {
    util::Vec2 centre;
    double radius;
  };
  /// Samples per block.
  static constexpr std::size_t kBlockSize = 16;

  static std::vector<Circle> block_bounds(const std::vector<util::Vec2>& points);
  std::size_t nearest_index(util::Vec2 point, std::optional<double> hint_s) const;
  /// Lexicographic (distance, index) minimum of `best` and samples [lo, hi],
  /// scanning block `seed` (which must overlap [lo, hi]) first.
  void nearest_in(std::size_t lo, std::size_t hi, util::Vec2 point, std::size_t seed,
                  Candidate& best) const;

  std::vector<util::Vec2> points_;
  std::vector<double> headings_;
  std::vector<double> arclength_;
  std::vector<Circle> blocks_;  ///< one per kBlockSize samples
  int lane_count_;
  double lane_width_;
};

/// The test route used in our experiments: a Town05-like course with long
/// straights, sweeping curves and two same-direction lanes. ~2.6 km.
/// `scale` shrinks every length (segment lengths, radii, lane width) —
/// scale 0.25 gives the kind of course a scaled-down model vehicle drives.
RoadNetwork make_town05_route(double scale = 1.0);
/// The sampled reference line of make_town05_route(scale).
PathBuilder::Sampled make_town05_reference(double scale = 1.0);

}  // namespace rdsim::sim

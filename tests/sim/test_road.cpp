#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <random>
#include <vector>

#include "sim/road.hpp"

namespace rdsim::sim {
namespace {

TEST(PathBuilder, StraightLength) {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 1.0};
  b.straight(100.0);
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 100.0, 1e-9);
  EXPECT_NEAR(s.points.back().x, 100.0, 1e-9);
  EXPECT_NEAR(s.points.back().y, 0.0, 1e-9);
}

TEST(PathBuilder, ArcGeometry) {
  // Quarter circle of radius 100 turning left: ends at (100, 100) heading
  // +90 degrees, length pi*50.
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 0.5};
  b.arc(100.0, util::deg_to_rad(90.0));
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 100.0 * std::numbers::pi / 2.0, 0.1);
  EXPECT_NEAR(s.points.back().x, 100.0, 0.5);
  EXPECT_NEAR(s.points.back().y, 100.0, 0.5);
  EXPECT_NEAR(s.headings.back(), util::deg_to_rad(90.0), 1e-6);
}

TEST(PathBuilder, RightTurnCurvesNegative) {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 0.5};
  b.arc(50.0, util::deg_to_rad(-90.0));
  const auto s = b.build();
  EXPECT_NEAR(s.points.back().y, -50.0, 0.5);
}

TEST(PathBuilder, IgnoresDegenerateSegments) {
  PathBuilder b{util::Pose{}, 1.0};
  b.straight(-5.0).arc(0.0, 1.0).arc(10.0, 0.0).straight(10.0);
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 10.0, 1e-9);
}

RoadNetwork simple_road() {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 1.0};
  b.straight(200.0).arc(100.0, util::deg_to_rad(45.0)).straight(200.0);
  return RoadNetwork{b.build(), 2, 3.5};
}

TEST(RoadNetwork, RejectsMalformedInput) {
  PathBuilder b{util::Pose{}, 1.0};
  b.straight(10.0);
  EXPECT_THROW(RoadNetwork(b.build(), 0, 3.5), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(b.build(), 2, 0.0), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(PathBuilder::Sampled{}, 2, 3.5), std::invalid_argument);
}

TEST(RoadNetwork, SampleOnStraight) {
  const auto road = simple_road();
  const auto p = road.sample(50.0, 0);
  EXPECT_NEAR(p.position.x, 50.0, 1e-6);
  EXPECT_NEAR(p.position.y, 0.0, 1e-6);
  const auto lane1 = road.sample(50.0, 1);
  EXPECT_NEAR(lane1.position.y, 3.5, 1e-6);  // lane 1 centre is 3.5 m left
}

TEST(RoadNetwork, SampleClampsOutOfRange) {
  const auto road = simple_road();
  const auto before = road.sample(-10.0, 0);
  EXPECT_NEAR(before.position.x, 0.0, 1e-6);
  const auto at_end = road.sample(road.length(), 0);
  const auto after = road.sample(road.length() + 50.0, 0);
  EXPECT_NEAR((after.position - at_end.position).norm(), 0.0, 1e-6);
}

TEST(RoadNetwork, CurvatureSigns) {
  const auto road = simple_road();
  EXPECT_NEAR(road.curvature_at(100.0), 0.0, 1e-4);          // straight
  EXPECT_NEAR(road.curvature_at(230.0), 1.0 / 100.0, 2e-3);  // left arc
}

class ProjectionRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ProjectionRoundTrip, RecoversArcLengthAndLateral) {
  const auto road = simple_road();
  const auto [s, lateral] = GetParam();
  const util::Pose pose = road.sample_offset(s, lateral);
  const auto proj = road.project(pose.position);
  EXPECT_NEAR(proj.s, s, 0.6);
  EXPECT_NEAR(proj.lateral, lateral, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProjectionRoundTrip,
    ::testing::Combine(::testing::Values(10.0, 100.0, 220.0, 300.0, 400.0),
                       ::testing::Values(-1.5, 0.0, 1.75, 3.5, 5.0)));

TEST(RoadNetwork, ProjectionLaneAssignment) {
  const auto road = simple_road();
  EXPECT_EQ(road.project(road.sample(100.0, 0).position).lane, 0);
  EXPECT_EQ(road.project(road.sample(100.0, 1).position).lane, 1);
  // Beyond the last lane the index clamps.
  const auto far_left = road.sample_offset(100.0, 9.0);
  EXPECT_EQ(road.project(far_left.position).lane, 1);
}

TEST(RoadNetwork, HintAcceleratedProjectionMatchesGlobal) {
  const auto road = simple_road();
  for (double s = 5.0; s < road.length(); s += 13.0) {
    const auto pose = road.sample_offset(s, 1.0);
    const auto global = road.project(pose.position);
    const auto hinted = road.project(pose.position, s - 3.0);
    EXPECT_NEAR(global.s, hinted.s, 0.6) << s;
    EXPECT_NEAR(global.lateral, hinted.lateral, 0.06) << s;
  }
}

TEST(RoadNetwork, StaleHintStillFindsTruePosition) {
  const auto road = simple_road();
  const auto pose = road.sample_offset(350.0, 0.0);
  const auto proj = road.project(pose.position, /*badly stale hint=*/5.0);
  EXPECT_NEAR(proj.s, 350.0, 1.0);
}

TEST(RoadNetwork, Markings) {
  const auto road = simple_road();
  EXPECT_EQ(road.marking_right_of(0), LaneMarking::kSolid);  // road edge
  EXPECT_EQ(road.marking_left_of(0), LaneMarking::kBroken);  // between lanes
  EXPECT_EQ(road.marking_left_of(1), LaneMarking::kSolid);   // far edge
  EXPECT_DOUBLE_EQ(road.right_edge_offset(), -1.75);
  EXPECT_DOUBLE_EQ(road.left_edge_offset(), 5.25);
}

TEST(Town05Route, HasExpectedScale) {
  const auto road = make_town05_route();
  EXPECT_GT(road.length(), 2400.0);
  EXPECT_LT(road.length(), 3000.0);
  EXPECT_EQ(road.lane_count(), 2);
  EXPECT_DOUBLE_EQ(road.lane_width(), 3.5);
  bool has_curve = false;
  bool has_straight = false;
  for (double s = 10.0; s < road.length(); s += 20.0) {
    const double k = std::fabs(road.curvature_at(s));
    if (k > 1e-3) has_curve = true;
    if (k < 1e-5) has_straight = true;
  }
  EXPECT_TRUE(has_curve);
  EXPECT_TRUE(has_straight);
}

TEST(Town05Route, ScaledVariantShrinksEverything) {
  const auto full = make_town05_route();
  const auto quarter = make_town05_route(0.25);
  EXPECT_NEAR(quarter.length(), full.length() * 0.25, full.length() * 0.01);
  EXPECT_DOUBLE_EQ(quarter.lane_width(), full.lane_width() * 0.25);
  EXPECT_EQ(quarter.lane_count(), full.lane_count());
  // Curvature scales inversely with length.
  EXPECT_NEAR(quarter.curvature_at(550.0 * 0.25),
              4.0 * full.curvature_at(550.0), 6e-3);
  // Nonsense scale falls back to full size.
  EXPECT_NEAR(make_town05_route(-3.0).length(), full.length(), 1.0);
}


// --- Equivalence of the pruned nearest-sample search with a linear scan ---

// The search RoadNetwork::project used before block pruning: a first-index
// linear scan of +/- 60 samples around the hint, falling back to a linear
// scan of the whole line when the best sample is on the window's edge.
std::size_t linear_nearest(const PathBuilder::Sampled& ref, util::Vec2 point,
                           std::optional<double> hint_s) {
  const auto scan = [&](std::size_t lo, std::size_t hi) {
    std::size_t best = lo;
    double best_d = (ref.points[lo] - point).norm_sq();
    for (std::size_t i = lo + 1; i <= hi; ++i) {
      const double d = (ref.points[i] - point).norm_sq();
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return best;
  };
  const std::size_t last = ref.points.size() - 1;
  if (hint_s) {
    const auto it = std::lower_bound(ref.arclength.begin(), ref.arclength.end(), *hint_s);
    const std::size_t centre = it == ref.arclength.end()
                                   ? last
                                   : static_cast<std::size_t>(it - ref.arclength.begin());
    const std::size_t lo = centre > 60 ? centre - 60 : 0;
    const std::size_t hi = std::min(centre + 60, last);
    const std::size_t best = scan(lo, hi);
    if (best > lo && best < hi) return best;
  }
  return scan(0, last);
}

// RoadNetwork::project's formulas, applied to the linear scan's sample.
RoadProjection linear_project(const PathBuilder::Sampled& ref, int lanes, double width,
                              util::Vec2 point, std::optional<double> hint_s) {
  const std::size_t i = linear_nearest(ref, point, hint_s);
  const util::Vec2 tangent = util::Vec2::from_heading(ref.headings[i]);
  const util::Vec2 d = point - ref.points[i];
  RoadProjection proj;
  proj.s = ref.arclength[i] + d.dot(tangent);
  proj.lateral = d.dot(tangent.perp());
  const int lane = static_cast<int>(std::lround(proj.lateral / width));
  proj.lane = std::clamp(lane, 0, lanes - 1);
  proj.lane_offset = proj.lateral - static_cast<double>(proj.lane) * width;
  return proj;
}

struct ReferenceRoad {
  PathBuilder::Sampled ref;
  RoadNetwork road;
  int lanes;
  double width;

  ReferenceRoad(PathBuilder::Sampled sampled, int lane_count, double lane_width)
      : ref{sampled}, road{std::move(sampled), lane_count, lane_width},
        lanes{lane_count}, width{lane_width} {}

  // Compares bit for bit. NaN results need only both be NaN: the sign of a
  // NaN made from a non-finite query depends on operand order, which the
  // compiler may choose differently for the two copies of the formulas.
  void expect_same(util::Vec2 point, std::optional<double> hint_s) const {
    const RoadProjection got = road.project(point, hint_s);
    const RoadProjection want = linear_project(ref, lanes, width, point, hint_s);
    const auto same = [](double a, double b) {
      return (std::isnan(a) && std::isnan(b)) ||
             std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    const auto where = [&] {
      return ::testing::Message() << "at (" << point.x << ", " << point.y << ") hint "
                                  << (hint_s ? *hint_s : -1.0) << ": got s "
                                  << got.s << " lateral " << got.lateral << ", want s "
                                  << want.s << " lateral " << want.lateral;
    };
    EXPECT_TRUE(same(got.s, want.s)) << where();
    EXPECT_TRUE(same(got.lateral, want.lateral)) << where();
    EXPECT_EQ(got.lane, want.lane) << where();
    EXPECT_TRUE(same(got.lane_offset, want.lane_offset)) << where();
  }
};

std::vector<ReferenceRoad> equivalence_roads() {
  std::vector<ReferenceRoad> roads;
  roads.emplace_back(make_town05_reference(1.0), 2, 3.5);
  roads.emplace_back(make_town05_reference(0.25), 2, 3.5 * 0.25);
  // A full circle: both ends meet, so the nearest sample of a point near the
  // start may be the last one, far outside any hint window.
  PathBuilder loop{util::Pose{{0, 0}, 0.0}, 0.7};
  loop.arc(40.0, 2.0 * std::numbers::pi).straight(30.0);
  roads.emplace_back(loop.build(), 3, 3.0);
  return roads;
}

TEST(NearestSampleSearch, MatchesLinearScanOnRandomPoints) {
  std::mt19937_64 rng{0x726f6164};
  for (const ReferenceRoad& r : equivalence_roads()) {
    const double len = r.road.length();
    std::uniform_real_distribution<double> along{0.0, len};
    std::uniform_real_distribution<double> lateral{-12.0, 12.0};
    std::uniform_real_distribution<double> unit{0.0, 1.0};
    util::Vec2 lo = r.ref.points.front();
    util::Vec2 hi = lo;
    for (const util::Vec2& p : r.ref.points) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    for (int n = 0; n < 3000; ++n) {
      // On (or near) the road, then far off it: up to ~2 km outside the
      // route's bounding box.
      const double s = along(rng);
      const util::Vec2 near = r.road.sample_offset(s, lateral(rng)).position;
      const util::Vec2 far{lo.x - 2000.0 + (hi.x - lo.x + 4000.0) * unit(rng),
                           lo.y - 2000.0 + (hi.y - lo.y + 4000.0) * unit(rng)};
      for (const util::Vec2 p : {near, far}) {
        r.expect_same(p, std::nullopt);
        r.expect_same(p, s + 4.0 * unit(rng) - 2.0);  // fresh hint
        r.expect_same(p, along(rng));                 // stale hint
      }
    }
  }
}

TEST(NearestSampleSearch, MatchesLinearScanPastBothEnds) {
  std::mt19937_64 rng{0x656e6473};
  std::uniform_real_distribution<double> beyond{0.0, 300.0};
  std::uniform_real_distribution<double> lateral{-10.0, 10.0};
  for (const ReferenceRoad& r : equivalence_roads()) {
    const double len = r.road.length();
    const util::Pose start = r.road.sample_offset(0.0, 0.0);
    const util::Pose end = r.road.sample_offset(len, 0.0);
    for (int n = 0; n < 1000; ++n) {
      const double d = beyond(rng);
      const double off = lateral(rng);
      const util::Vec2 before =
          start.position - start.forward() * d + start.forward().perp() * off;
      const util::Vec2 after =
          end.position + end.forward() * d + end.forward().perp() * off;
      for (const std::optional<double> hint :
           {std::optional<double>{}, std::optional<double>{0.0},
            std::optional<double>{-d}, std::optional<double>{len},
            std::optional<double>{len + d}, std::optional<double>{len - d},
            std::optional<double>{0.5 * len}}) {
        r.expect_same(before, hint);
        r.expect_same(after, hint);
      }
    }
  }
}

// Headings and arc lengths that differ per sample, so that a projection
// reveals which of two equidistant samples the search picked.
PathBuilder::Sampled with_indexed_frames(PathBuilder::Sampled sampled) {
  for (std::size_t i = 0; i < sampled.points.size(); ++i) {
    sampled.headings[i] = 0.01 * static_cast<double>(i % 7);
    sampled.arclength[i] = 1.5 * static_cast<double>(i);
  }
  return sampled;
}

TEST(NearestSampleSearch, ExactTiesResolveToTheFirstIndex) {
  // Town05 starts with a straight along +x whose samples sit at exact
  // multiples of the step, so a point halfway between two samples is
  // exactly equidistant from both.
  for (const double scale : {1.0, 0.25}) {
    const ReferenceRoad r{with_indexed_frames(make_town05_reference(scale)), 2,
                          3.5 * scale};
    const double step = r.ref.points[1].x;
    for (std::size_t k = 0; k < 200; ++k) {
      const util::Vec2 a = r.ref.points[k];
      const util::Vec2 b = r.ref.points[k + 1];
      for (const double y : {0.0, 0.75 * scale, -3.0 * scale, 6.5 * scale}) {
        const util::Vec2 p{static_cast<double>(k) * step + 0.5 * step, y};
        ASSERT_EQ((a - p).norm_sq(), (b - p).norm_sq()) << k;
        r.expect_same(p, std::nullopt);
        r.expect_same(p, 1.5 * static_cast<double>(k));
      }
    }
  }
}

TEST(NearestSampleSearch, TiesAcrossBlocksScannedOutOfOrder) {
  // A line along -x (samples 0-15, x = 15..0), a block that doubles back
  // onto one of its samples (16-31), and a line along +x (32-47). A hint of
  // s = 20 seeds the search in the second block, so it is scanned before the
  // first; the tie must still go to the earlier index.
  const auto hairpin = [](double duplicated_x) {
    PathBuilder::Sampled line;
    for (std::size_t i = 0; i < 48; ++i) {
      const double x = i < 16 ? 15.0 - static_cast<double>(i)
                              : (i < 32 ? duplicated_x : static_cast<double>(i));
      line.points.push_back({x, 0.0});
      line.headings.push_back(0.0);
      line.arclength.push_back(static_cast<double>(i));
    }
    return line;
  };
  const ReferenceRoad mid{hairpin(8.0), 1, 3.5};
  for (const double y : {0.0, 1.0, 5.0, -20.0}) {
    mid.expect_same({8.0, y}, std::nullopt);
    mid.expect_same({8.0, y}, 20.0);
    EXPECT_EQ(mid.road.project({8.0, y}).s, 7.0);  // sample 7, not 16
  }
  // Duplicating x = 0 (sample 15) puts the tie exactly on the first block's
  // bound: for a query at (-a, 0) the bound |q - c| - r equals a, the
  // distance of the tying sample. Seeded in the second block, the search
  // must not round the first block away.
  const ReferenceRoad edge{hairpin(0.0), 1, 3.5};
  std::mt19937_64 rng{0x74696573};
  std::uniform_real_distribution<double> gap{0.0, 100.0};
  for (int n = 0; n < 2000; ++n) {
    const double a = gap(rng);
    for (const std::optional<double> hint : {std::optional<double>{}, std::optional{20.0}}) {
      edge.expect_same({-a, 0.0}, hint);
      EXPECT_EQ(edge.road.project({-a, 0.0}, hint).s, 15.0 - a) << a;
    }
  }
}

// A NaN or infinite query yields non-finite fields whichever sample is picked,
// so for those the test pins that the search ends and agrees in kind; finite
// queries with non-finite hints still reveal the sample.
TEST(NearestSampleSearch, NonFiniteInputsMatchLinearScan) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  for (const ReferenceRoad& r : equivalence_roads()) {
    const double len = r.road.length();
    for (const util::Vec2 p :
         {util::Vec2{nan, 0.0}, util::Vec2{0.0, nan}, util::Vec2{nan, nan},
          util::Vec2{inf, 0.0}, util::Vec2{-inf, 10.0}, util::Vec2{0.0, -inf},
          util::Vec2{inf, inf}, util::Vec2{-inf, inf}, util::Vec2{inf, nan}}) {
      for (const std::optional<double> hint :
           {std::optional<double>{}, std::optional<double>{0.0},
            std::optional<double>{0.5 * len}, std::optional<double>{len},
            std::optional<double>{nan}, std::optional<double>{inf},
            std::optional<double>{-inf}}) {
        r.expect_same(p, hint);
      }
    }
    // Finite points with non-finite hints.
    const util::Vec2 on = r.road.sample_offset(0.3 * len, 1.0).position;
    for (const double hint : {nan, inf, -inf}) r.expect_same(on, hint);
  }
}

}  // namespace
}  // namespace rdsim::sim

// Regenerates the paper's whole evaluation from one 12-subject campaign:
// Table I (driving station) with the derived model parameters, Table II
// (faults injected), Table III (TTC), Table IV (SRR), the §VI.E collision
// analysis and the §VI.F questionnaire, each followed by the paper's
// reference figures, then the campaign's contract-violation count and hash.
//
//   usage: bench_paper [--dump-traces] [--expect-hash H] [seed]
//
// The campaign runs once, in process, on the thread-pool runner (bit-identical
// to the serial runner). --dump-traces also writes the 24 runs' raw traces as
// CSV to the working directory. With RDSIM_OBS=1 in the environment (and
// observability compiled in) the campaign runs with an obs::CampaignCollector
// attached and writes BENCH_obs.json and campaign_sample.trace.json.
//
// Exits non-zero when any contract fired during the campaign: a campaign
// whose contracts fire is wrong even when its hash is stable. With
// --expect-hash H (16 hex digits) it also exits non-zero unless the campaign
// hash is H; the test suite runs `--expect-hash eaddc6da559ac7ff` (the
// default seed 14) so that every number the tables print is pinned.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "check/contracts.hpp"
#include "core/campaign_hash.hpp"
#include "core/report.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"

using namespace rdsim;

namespace {

bool obs_requested() {
  if (!obs::compiled_in()) return false;
  const char* env = std::getenv("RDSIM_OBS");
  return env != nullptr && *env != '\0' && std::string_view{env} != "0";
}

// Table I: the driving-station specification this testbed models, plus the
// derived timing parameters the models actually consume.
void print_table1(const core::RdsConfig& rds) {
  const core::StationConfig& station = rds.station;
  std::fputs(core::report::render_table1(station).c_str(), stdout);
  std::printf("\nDerived model parameters:\n");
  std::printf("  display latency  %.0f ms\n", station.display_latency.value());
  std::printf("  input latency    %.0f ms\n", station.input_latency.value());
  std::printf("  wheel range      %.0f deg lock-to-lock\n", station.wheel_range_deg);
  std::printf("  video frame      %.1f MB on the wire (raw sensor stream)\n",
              rds.video.frame_wire_bytes / 1e6);
}

// Table II: injections of each fault type per subject, with totals.
void print_table2(const core::CampaignResult& campaign) {
  std::fputs(core::report::render_table2(campaign).c_str(), stdout);
  std::printf("\nPaper reference: per-subject totals 10-14; column totals "
              "20 / 30 / 24 / 31 / 29; grand total 134.\n");
}

// Table III: TTC max / average / minimum per subject and fault type. Shape
// expectations from §VI.C: average TTC lower in faulty runs than NFI for
// most tests; minimum TTC often *higher* under faults (subjects drive more
// cautiously); with a 6 s threshold, 5 % loss violates while 5 ms delay
// does not.
void print_table3(const core::CampaignResult& campaign) {
  std::fputs(core::report::render_table3(campaign, /*mask_like_paper=*/false).c_str(),
             stdout);
  std::printf("\n--- masked to the subjects the paper could report (T5..T12) ---\n");
  std::fputs(core::report::render_table3(campaign, /*mask_like_paper=*/true).c_str(),
             stdout);

  int avg_lower = 0, avg_total = 0, min_higher = 0, min_total = 0;
  int viol_5pct = 0, viol_5ms = 0;
  for (const auto& row : core::report::ttc_rows(campaign)) {
    if (!row.nfi) continue;
    for (const auto& [label, cell] : row.cells) {
      if (!cell) continue;
      ++avg_total;
      if (cell->avg < row.nfi->avg) ++avg_lower;
      ++min_total;
      if (cell->min > row.nfi->min) ++min_higher;
      if (label == "5%") viol_5pct += static_cast<int>(cell->violations);
      if (label == "5ms") viol_5ms += static_cast<int>(cell->violations);
    }
  }
  std::printf("\nShape summary:\n");
  std::printf("  fault cells with avg TTC below the subject's NFI: %d / %d\n", avg_lower,
              avg_total);
  std::printf("  fault cells with min TTC above the subject's NFI: %d / %d\n", min_higher,
              min_total);
  std::printf("  TTC<6s violation samples under 5%% loss: %d, under 5ms delay: %d\n",
              viol_5pct, viol_5ms);
}

// Table IV: steering reversals per minute. Shape expectations from §VI.D:
// NFI lowest (~5), every fault column above it, the three delay columns
// alike, and 5 % loss the highest.
void print_table4(const core::CampaignResult& campaign) {
  std::fputs(core::report::render_table4(campaign, /*mask_like_paper=*/false).c_str(),
             stdout);
  std::printf("\n--- masked like the paper (x = data the paper lost) ---\n");
  std::fputs(core::report::render_table4(campaign, /*mask_like_paper=*/true).c_str(),
             stdout);

  util::RunningStats nfi;
  std::map<std::string, util::RunningStats> cols;
  for (const auto& row : core::report::srr_rows(campaign)) {
    if (row.nfi) nfi.add(*row.nfi);
    for (const auto& [label, v] : row.cells) {
      if (v) cols[label].add(*v);
    }
  }
  std::printf("\nShape summary (column means, rev/min):\n  NFI %.2f", nfi.mean());
  for (const auto& label : core::report::fault_labels()) {
    std::printf("  %s %.2f", label.c_str(), cols[label].mean());
  }
  std::printf("\n  paper: NFI 5.04 | 5ms 7.57 | 25ms 7.85 | 50ms 7.66 | 2%% 7.71 | 5%% 9.18\n");
}

// §VI.E: of 11 participants, 2 collided in the golden run and 8 in the
// faulty run, only under 50 ms delay and 5 % loss.
void print_collisions(const core::CampaignResult& campaign) {
  std::fputs(core::report::render_collision_analysis(campaign).c_str(), stdout);
  std::printf("\nPaper reference: golden 2/11, faulty 8/11; crashes only under "
              "50ms delay and 5%% loss.\n");
}

void dump_traces(const core::CampaignResult& campaign) {
  for (const auto& subject : campaign.subjects) {
    for (const auto* run : {&subject.golden, &subject.faulty}) {
      const std::string stem = run->trace.run_id;
      std::ofstream ego{stem + "_ego.csv"};
      std::ofstream others{stem + "_others.csv"};
      std::ofstream events{stem + "_events.csv"};
      run->trace.write_csv(ego, others, events);
    }
  }
  std::printf("\nwrote 24 x 3 trace CSV files to the working directory\n");
}

/// Parses 16 hex digits; nullopt for anything else.
std::optional<std::uint64_t> parse_hash(const char* text) {
  if (std::strlen(text) != 16) return std::nullopt;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text, &end, 16);
  if (end != text + 16) return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  std::optional<std::uint64_t> expected_hash;
  core::ExperimentConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-traces") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--expect-hash") == 0 && i + 1 < argc) {
      expected_hash = parse_hash(argv[++i]);
      if (!expected_hash) {
        std::fprintf(stderr, "usage: --expect-hash takes 16 hex digits, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else {
      cfg.seed = std::strtoull(argv[i], nullptr, 10);
    }
  }

  print_table1(cfg.rds);

  const bool with_obs = obs_requested();
  core::ExperimentHarness harness{cfg};
  obs::CampaignCollector collector;
  if (with_obs) harness.set_collector(&collector);
  const check::Registry& contracts = check::Registry::instance();
  const std::uint64_t violations_before = contracts.total_violations();
  const auto t0 = std::chrono::steady_clock::now();
  const core::CampaignResult campaign = harness.run_campaign_parallel(/*n_workers=*/0);
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t violations = contracts.total_violations() - violations_before;
  const std::uint64_t hash = check::campaign_hash(campaign);
  std::printf("[campaign: 12 subjects x (golden + faulty) in %.1f s wall, hash %016llx]\n",
              std::chrono::duration<double>(t1 - t0).count(),
              static_cast<unsigned long long>(hash));
  if (with_obs) {
    collector.write_report("BENCH_obs.json");
    collector.write_trace("campaign_sample.trace.json");
    std::printf("[campaign: obs report BENCH_obs.json, trace campaign_sample.trace.json]\n");
  }
  std::printf("\n");

  print_table2(campaign);
  std::printf("\n");
  print_table3(campaign);
  std::printf("\n");
  print_table4(campaign);
  std::printf("\n");
  print_collisions(campaign);
  std::printf("\n");
  std::fputs(core::report::render_questionnaire(campaign).c_str(), stdout);

  if (dump) dump_traces(campaign);
  std::printf("\ncontract violations: %llu\n",
              static_cast<unsigned long long>(violations));
  std::printf("campaign hash: %016llx\n", static_cast<unsigned long long>(hash));
  int status = 0;
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %llu contract violation(s) during the campaign\n",
                 static_cast<unsigned long long>(violations));
    status = 1;
  }
  if (expected_hash && hash != *expected_hash) {
    std::fprintf(stderr, "FAIL: campaign hash %016llx, expected %016llx\n",
                 static_cast<unsigned long long>(hash),
                 static_cast<unsigned long long>(*expected_hash));
    status = 1;
  }
  return status;
}

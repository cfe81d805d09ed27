// Golden-hash regression corpus for the deterministic campaign runner.
//
// Each entry pins the check::campaign_hash and the twelve per-subject hashes
// of a miniature campaign (time-capped runs, full pipeline) for one seed.
// The corpus fails on ANY behavioural drift in the simulator, network
// emulation, driver model, fault injection or aggregation — and then tells
// you where: first the first divergent subject, then (by re-running that
// subject twice with replay recorders) whether the drift is nondeterminism
// within this build, pinpointed to a tick, or an intentional behaviour
// change that requires regenerating the table below.
//
// To regenerate after an intentional change: run this test; the failure
// output prints the complete replacement table, copy-paste it over the
// drifted one (kGolden, kGoldenMitigated or kGoldenDatagram).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "check/contracts.hpp"
#include "check/replay.hpp"
#include "core/campaign_hash.hpp"
#include "core/experiment.hpp"
#include "obs/catalog.hpp"
#include "obs/report.hpp"

namespace rdsim::core {
namespace {

// Miniature campaigns: cap each run at 12 simulated seconds so the three
// corpus seeds and the worker-count sweep stay inside the unit-test budget
// while still exercising the full golden+faulty pipeline per subject.
constexpr double kGoldenTimeCapS = 12.0;

ExperimentConfig golden_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.run_time_limit = units::Seconds{kGoldenTimeCapS};
  return cfg;
}

// Serial reference campaigns, one per (configuration, seed), shared by every
// test in this binary (the parallel sweeps reuse the serial hash as their
// baseline), with the contract violations each one fired.
struct SerialRun {
  CampaignResult campaign;
  std::uint64_t violations;  ///< check::Registry delta over the run
};

template <ExperimentConfig (*MakeConfig)(std::uint64_t)>
const SerialRun& serial_run(std::uint64_t seed) {
  static std::map<std::uint64_t, SerialRun> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    const check::Registry& contracts = check::Registry::instance();
    const std::uint64_t before = contracts.total_violations();
    CampaignResult campaign = ExperimentHarness{MakeConfig(seed)}.run_campaign();
    const std::uint64_t violations = contracts.total_violations() - before;
    it = cache.emplace(seed, SerialRun{std::move(campaign), violations}).first;
  }
  return it->second;
}

template <ExperimentConfig (*MakeConfig)(std::uint64_t)>
const CampaignResult& serial_campaign(std::uint64_t seed) {
  return serial_run<MakeConfig>(seed).campaign;
}

struct GoldenEntry {
  std::uint64_t seed;
  std::uint64_t campaign;
  std::uint64_t subjects[12];
};

// ---- golden corpus (regenerate via the failure output, see header) ----
constexpr GoldenEntry kGolden[] = {
    {7,
     0xf88122499647c945ULL,
     {0x6096682db6c44d8fULL, 0x8f39ea77c3515e1fULL, 0x0dc0d9ec70a48da4ULL,
      0xbcde8b61f074a706ULL, 0x3e20aee3ac8ee858ULL, 0xc00a6e7623798c8eULL,
      0xd6bdd3112ce7dfd3ULL, 0x456bd5e1acd8c440ULL, 0x8403b8ae67bfef6dULL,
      0x134b1ba7d770b753ULL, 0x5c3fe45004fb984cULL, 0x7cbe3ebce2db107aULL}},
    {11,
     0xe4bb1b2b3ba5e247ULL,
     {0x71bb6015f0c177bdULL, 0x7bee0a0823080fa4ULL, 0x7570e6ebb38ff46fULL,
      0xdbc867a1a1229b76ULL, 0x27fa0bfd4719252dULL, 0x4932a188affdbeb8ULL,
      0x9c8d1903320f162aULL, 0xfb47644d0b89ce69ULL, 0x11a7ad309e44d4f0ULL,
      0x83931f3b575f3567ULL, 0x5b31602e1e046d91ULL, 0x5cc7219bd8579067ULL}},
    {42,
     0xc7b32e6eba1c308cULL,
     {0x420441ed33c434eaULL, 0xe404e35ad9eebc4dULL, 0x7b48afd19a3f670fULL,
      0x8676df00a4e5bfaeULL, 0x15c040257a193c82ULL, 0xae285f9237fc956fULL,
      0xc98a0ebfc03f4e80ULL, 0xc972b3817d15d595ULL, 0xaf302fa4c383dbb2ULL,
      0x6a3ff982f60cb480ULL, 0x30a9bad75a131159ULL, 0x9e1dfb20891f99d8ULL}},
};

// Prints `table` as a C++ initializer holding this build's hashes, ready to
// paste over the drifted table.
template <ExperimentConfig (*MakeConfig)(std::uint64_t), std::size_t N>
std::string render_table(const char* name, const GoldenEntry (&table)[N]) {
  std::string out = std::string{"constexpr GoldenEntry "} + name + "[] = {\n";
  char buf[64];
  for (const GoldenEntry& entry : table) {
    const CampaignResult& campaign = serial_campaign<MakeConfig>(entry.seed);
    std::snprintf(buf, sizeof buf, "    {%llu,\n     0x%016llxULL,\n     {",
                  static_cast<unsigned long long>(entry.seed),
                  static_cast<unsigned long long>(check::campaign_hash(campaign)));
    out += buf;
    for (std::size_t i = 0; i < campaign.subjects.size(); ++i) {
      std::snprintf(buf, sizeof buf, "0x%016llxULL",
                    static_cast<unsigned long long>(
                        check::hash_subject(campaign.subjects[i])));
      out += buf;
      if (i + 1 < campaign.subjects.size())
        out += (i % 3 == 2) ? ",\n      " : ", ";
    }
    out += "}},\n";
  }
  out += "};\n";
  return out;
}

// When a subject's hash drifted, separate "this build is nondeterministic"
// from "behaviour changed intentionally": re-run the same subject twice with
// replay recorders and diff the tick chains.
std::string diagnose_subject(const ExperimentHarness& harness,
                             const SubjectProfile& profile) {
  check::ReplayRecorder first_golden, first_faulty;
  check::ReplayRecorder second_golden, second_faulty;
  const SubjectResult a = harness.run_subject(profile, &first_golden, &first_faulty);
  const SubjectResult b = harness.run_subject(profile, &second_golden, &second_faulty);
  if (check::hash_subject(a) != check::hash_subject(b)) {
    const auto golden_diff = check::diff_replays(first_golden, second_golden);
    const auto faulty_diff = check::diff_replays(first_faulty, second_faulty);
    return "NONDETERMINISM within this build: subject " + profile.id +
           " differs between two serial re-runs.\n  golden run: " +
           golden_diff.summary() + "\n  faulty run: " + faulty_diff.summary();
  }
  return "subject " + profile.id +
         " reproduces within this build (two re-runs identical) — the drift "
         "vs the golden table is a behaviour change; if intentional, "
         "regenerate the table below.";
}

// Fails when any entry's campaign hash drifted: pinpoints the first
// divergent subject, classifies the drift, and prints a replacement table.
template <ExperimentConfig (*MakeConfig)(std::uint64_t), std::size_t N>
void expect_corpus_matches(const char* name, const GoldenEntry (&table)[N]) {
  for (const GoldenEntry& entry : table) {
    const CampaignResult& campaign = serial_campaign<MakeConfig>(entry.seed);
    ASSERT_EQ(campaign.subjects.size(), 12u);
    if (check::campaign_hash(campaign) == entry.campaign) continue;

    std::string detail = std::string{name} + " campaign_hash drifted for seed " +
                         std::to_string(entry.seed) + ".\n";
    bool found = false;
    for (std::size_t i = 0; i < campaign.subjects.size(); ++i) {
      if (check::hash_subject(campaign.subjects[i]) != entry.subjects[i]) {
        detail += "first divergent subject: index " + std::to_string(i) + " (" +
                  campaign.subjects[i].profile.id + ")\n";
        const ExperimentHarness harness{MakeConfig(entry.seed)};
        detail += diagnose_subject(harness, campaign.subjects[i].profile) + "\n";
        found = true;
        break;
      }
    }
    if (!found) {
      detail +=
          "all 12 subject hashes match — drift is in campaign-level fields "
          "(config/aggregation).\n";
    }
    ADD_FAILURE() << detail << "\nreplacement table:\n"
                  << render_table<MakeConfig>(name, table);
    return;  // one table print is enough
  }
}

// A campaign whose contracts fire is wrong even when its hash matches.
template <ExperimentConfig (*MakeConfig)(std::uint64_t), std::size_t N>
void expect_no_contract_violations(const GoldenEntry (&table)[N]) {
  for (const GoldenEntry& entry : table) {
    EXPECT_EQ(serial_run<MakeConfig>(entry.seed).violations, 0u)
        << "contracts fired in the campaign at seed " << entry.seed;
  }
}

TEST(CampaignGolden, HashCorpusMatchesCheckedInTable) {
  expect_corpus_matches<golden_config>("kGolden", kGolden);
  expect_no_contract_violations<golden_config>(kGolden);
}

TEST(CampaignGolden, ParallelMatchesSerialForEveryWorkerCount) {
  for (const GoldenEntry& entry : kGolden) {
    const std::uint64_t serial_hash =
        check::campaign_hash(serial_campaign<golden_config>(entry.seed));
    const ExperimentHarness harness{golden_config(entry.seed)};
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const CampaignResult parallel = harness.run_campaign_parallel(workers);
      ASSERT_EQ(check::campaign_hash(parallel), serial_hash)
          << "seed " << entry.seed << " workers " << workers;
    }
  }
}

TEST(CampaignGolden, ObservabilityDoesNotPerturbTheCampaign) {
  // The cardinal obs rule: with every instrument live — counters, gauges,
  // histograms, wall timers, spans — the campaign hash and all twelve
  // subject hashes must equal the checked-in corpus values, serially and at
  // every worker count. Observation reads sim state; it never touches an
  // RNG stream, the virtual clock, or any hashed value.
  for (const GoldenEntry& entry : kGolden) {
    ExperimentHarness harness{golden_config(entry.seed)};
    obs::CampaignCollector collector;
    harness.set_collector(&collector);
    const CampaignResult observed = harness.run_campaign();
    ASSERT_EQ(check::campaign_hash(observed), entry.campaign)
        << "obs-enabled serial campaign drifted, seed " << entry.seed;
    for (std::size_t i = 0; i < observed.subjects.size(); ++i) {
      ASSERT_EQ(check::hash_subject(observed.subjects[i]), entry.subjects[i])
          << "obs-enabled subject hash drifted, seed " << entry.seed
          << " subject index " << i;
    }
#if RDSIM_OBS
    // The collector must actually have gathered data — an accidentally inert
    // instrumentation layer would make this whole test vacuous.
    ASSERT_EQ(collector.run_count(), 24u);  // 12 subjects x (NFI + FI)
    const obs::Context merged = collector.merged();
    EXPECT_GT(merged.counter(obs::metric::kNetemEnqueued) +
                  merged.counter(obs::metric::kFifoEnqueued),
              0u);
    EXPECT_GT(merged.counter(obs::metric::kStreamSegmentsTx), 0u);
    EXPECT_NE(merged.timer(obs::metric::kRunWall), nullptr);
#endif
  }

  // Worker sweep (seed 42 keeps the sweep inside the unit-test budget): the
  // pooled runner installs per-run contexts on whatever worker executes the
  // subject; hashes must still match the corpus bit-for-bit.
  const GoldenEntry& entry = kGolden[2];
  ASSERT_EQ(entry.seed, 42u);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ExperimentHarness harness{golden_config(entry.seed)};
    obs::CampaignCollector collector;
    harness.set_collector(&collector);
    const CampaignResult observed = harness.run_campaign_parallel(workers);
    ASSERT_EQ(check::campaign_hash(observed), entry.campaign)
        << "obs-enabled parallel campaign drifted at " << workers << " workers";
#if RDSIM_OBS
    ASSERT_EQ(collector.run_count(), 24u) << workers << " workers";
#endif
  }
}

TEST(CampaignGolden, ObsAggregationIsWorkerCountIndependent) {
#if RDSIM_OBS
  // Deterministic metrics (everything except wall timers) must aggregate to
  // the same campaign report regardless of worker count: contexts merge in
  // run-id order, never completion order. Compare full per-run counter,
  // gauge and histogram state across worker counts.
  const std::uint64_t seed = 42;
  auto collect = [&](std::size_t workers) {
    ExperimentHarness harness{golden_config(seed)};
    auto collector = std::make_unique<obs::CampaignCollector>();
    harness.set_collector(collector.get());
    harness.run_campaign_parallel(workers);
    return collector;
  };
  const auto reference = collect(1);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto other = collect(workers);
    ASSERT_EQ(other->run_count(), reference->run_count());
    auto ref_it = reference->runs().begin();
    for (const auto& [run_id, context] : other->runs()) {
      ASSERT_EQ(run_id, ref_it->first);
      const obs::Context& ref_ctx = ref_it->second;
      for (obs::MetricId id = 0; id < obs::metric_count(); ++id) {
        const obs::MetricDef& def = obs::metric_def(id);
        if (def.kind == obs::MetricKind::kTimer) continue;  // wall-clock noise
        EXPECT_EQ(context.counter(id), ref_ctx.counter(id))
            << run_id << " " << def.name << " @ " << workers << " workers";
        const obs::HistogramCell* h = context.histogram(id);
        const obs::HistogramCell* rh = ref_ctx.histogram(id);
        ASSERT_EQ(h == nullptr, rh == nullptr) << run_id << " " << def.name;
        if (h != nullptr) {
          EXPECT_EQ(h->counts, rh->counts) << run_id << " " << def.name;
        }
      }
      EXPECT_EQ(context.spans().size(), ref_ctx.spans().size()) << run_id;
      ++ref_it;
    }
  }
#else
  GTEST_SKIP() << "observability compiled out";
#endif
}

// ---- mitigated corpus --------------------------------------------------
// The same miniature campaigns with the rdsim::mitigate stack enabled at its
// default thresholds. A second, independent table: the unmitigated corpus
// above proves the stack is bit-exactly inert when disabled; this one pins
// the mitigated behaviour itself against drift.

ExperimentConfig mitigated_config(std::uint64_t seed) {
  ExperimentConfig cfg = golden_config(seed);
  cfg.mitigation.enabled = true;
  return cfg;
}

// ---- mitigated golden corpus (regenerate via the failure output) ----
constexpr GoldenEntry kGoldenMitigated[] = {
    {7,
     0x5bde6b42557307c2ULL,
     {0xe4520281d74983ffULL, 0x6b5f5c282513905eULL, 0x56a371b4dda8e777ULL,
      0xc8198d332d656af2ULL, 0xdc0c5e202c06db70ULL, 0xfa2ecc1334d903a3ULL,
      0xac8b9f8852d073e3ULL, 0xb7fb41079d6f36d4ULL, 0xffa8b5283564f76dULL,
      0x4951ad3746f90816ULL, 0x6fb8f44d478ac60cULL, 0xc87062dd0d849ca7ULL}},
    {11,
     0x1c42d0d35be2f09eULL,
     {0x50426df62ea0e919ULL, 0x2ea542dc67d21400ULL, 0xc8414434fc02c1f3ULL,
      0x744333dde4274bcaULL, 0x3c2426fe2e48d241ULL, 0xd85ca8019127ef80ULL,
      0x716f25dbaad47712ULL, 0xbcd13ac0a283edb3ULL, 0x96caa372bf6a165dULL,
      0x0eab7a81cd36bf79ULL, 0x8a9ec84f2b2099ddULL, 0xe38778fa6826729bULL}},
    {42,
     0x6692e9547d0fa5f0ULL,
     {0xbf3b878dba2a0e12ULL, 0x9294ab9a568e27e4ULL, 0xbaa98f6e009e1166ULL,
      0x73d5570b9a309caeULL, 0x34cca7b9a0cda096ULL, 0x19361f7ec5415e17ULL,
      0xe972265c0cd8958cULL, 0x8dce7659c6b5574dULL, 0x259bc769605bc521ULL,
      0xa68124f3fac38633ULL, 0x760eda7b042b1e41ULL, 0x0c77ed972ea3c2fcULL}},
};

TEST(CampaignGoldenMitigated, HashCorpusMatchesCheckedInTable) {
  expect_corpus_matches<mitigated_config>("kGoldenMitigated", kGoldenMitigated);
}

TEST(CampaignGoldenMitigated, MitigationActuallyEngagesInTheCorpus) {
  // Guard against a vacuous mitigated corpus: across the three seeds the
  // governor must leave NOMINAL somewhere and the summaries must be present
  // on every run.
  double non_nominal_dwell = 0.0;
  std::uint64_t interventions = 0;
  for (const GoldenEntry& entry : kGoldenMitigated) {
    for (const SubjectResult& s :
         serial_campaign<mitigated_config>(entry.seed).subjects) {
      ASSERT_TRUE(s.golden.mitigation.enabled);
      ASSERT_TRUE(s.faulty.mitigation.enabled);
      non_nominal_dwell += s.faulty.mitigation.dwell_degraded.value() +
                           s.faulty.mitigation.dwell_impaired.value() +
                           s.faulty.mitigation.dwell_link_loss.value();
      interventions += s.faulty.mitigation.interventions;
    }
  }
  EXPECT_GT(non_nominal_dwell, 0.0);
  EXPECT_GT(interventions, 0u);
}

TEST(CampaignGoldenMitigated, ParallelMatchesSerialForEveryWorkerCount) {
  // Mitigation state lives entirely inside the per-run session (no RNG, no
  // globals), so the pooled runner must stay bit-identical with it enabled.
  const GoldenEntry& entry = kGoldenMitigated[2];
  ASSERT_EQ(entry.seed, 42u);
  const std::uint64_t serial_hash =
      check::campaign_hash(serial_campaign<mitigated_config>(entry.seed));
  const ExperimentHarness harness{mitigated_config(entry.seed)};
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const CampaignResult parallel = harness.run_campaign_parallel(workers);
    ASSERT_EQ(check::campaign_hash(parallel), serial_hash)
        << "mitigated campaign diverged at " << workers << " workers";
  }
}

TEST(CampaignGoldenMitigated, DisabledMitigationDoesNotChangeTheHash) {
  // The structural non-interference claim at the campaign level: a config
  // with mitigation disabled produces exactly the unmitigated corpus hash
  // (the opt_block folds nothing), so the two tables can never cross-talk.
  for (const GoldenEntry& entry : kGolden) {
    ExperimentConfig cfg = golden_config(entry.seed);
    cfg.mitigation.enabled = false;  // explicit: the default
    const CampaignResult campaign = ExperimentHarness{cfg}.run_campaign();
    ASSERT_EQ(check::campaign_hash(campaign), entry.campaign)
        << "disabled mitigation perturbed seed " << entry.seed;
    break;  // one seed proves the plumbing; the full corpus runs above
  }
}

// ---- datagram corpus ---------------------------------------------------
// The same miniature campaign with video and commands both on datagram
// transports: one packet per message, no retransmission, latest-wins
// receive. The two corpora above run reliable streams only; this entry pins
// the datagram path through TeleopSession.

ExperimentConfig datagram_config(std::uint64_t seed) {
  ExperimentConfig cfg = golden_config(seed);
  cfg.rds.datagram_video = true;
  cfg.rds.datagram_commands = true;
  return cfg;
}

// ---- datagram golden corpus (regenerate via the failure output) ----
constexpr GoldenEntry kGoldenDatagram[] = {
    {7,
     0xb417cdbcf30d18aeULL,
     {0x7821445d278d4fd5ULL, 0xb973c8936e2e1ee7ULL, 0x63c72dfac79d4231ULL,
      0x2db4130daf299ac4ULL, 0xf4056b2c77098eaeULL, 0xf98ff0df26eec0c6ULL,
      0x9002dd5e7ff73ed0ULL, 0xcc370856b9d7194eULL, 0xad2ffb60fe42dc6aULL,
      0xb3ce516bba1c55c7ULL, 0x8c15dafc51e5e5c2ULL, 0x4f546fec2f456450ULL}},
};

TEST(CampaignGoldenDatagram, HashCorpusMatchesCheckedInTable) {
  expect_corpus_matches<datagram_config>("kGoldenDatagram", kGoldenDatagram);
  expect_no_contract_violations<datagram_config>(kGoldenDatagram);
}

TEST(CampaignGoldenDatagram, NoRunUsesAReliableStream) {
  // Guard against a vacuous datagram corpus: every run must have bypassed
  // the reliable-stream transport in both directions.
  for (const GoldenEntry& entry : kGoldenDatagram) {
    for (const SubjectResult& s : serial_campaign<datagram_config>(entry.seed).subjects) {
      for (const RunResult* r : {&s.golden, &s.faulty}) {
        EXPECT_EQ(r->video_stats.segments_sent, 0u) << s.profile.id;
        EXPECT_EQ(r->command_stats.segments_sent, 0u) << s.profile.id;
        EXPECT_GT(r->frames_displayed, 0u) << s.profile.id;
      }
    }
  }
}

TEST(CampaignGoldenDatagram, ParallelMatchesSerialForEveryWorkerCount) {
  for (const GoldenEntry& entry : kGoldenDatagram) {
    const ExperimentHarness harness{datagram_config(entry.seed)};
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const CampaignResult parallel = harness.run_campaign_parallel(workers);
      ASSERT_EQ(check::campaign_hash(parallel), entry.campaign)
          << "datagram campaign diverged at " << workers << " workers";
    }
  }
}

TEST(CampaignGolden, SubjectHashesAreOrderIndependent) {
  // SplitMix sub-seeding makes each subject a pure function of (campaign
  // seed, roster index): running one subject in isolation must reproduce its
  // in-campaign result exactly.
  const std::uint64_t seed = 42;
  const CampaignResult& campaign = serial_campaign<golden_config>(seed);
  const ExperimentHarness harness{golden_config(seed)};
  for (const std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{11}}) {
    const SubjectResult alone =
        harness.run_subject(campaign.subjects[i].profile);
    EXPECT_EQ(check::hash_subject(alone),
              check::hash_subject(campaign.subjects[i]))
        << "subject index " << i;
  }
}

}  // namespace
}  // namespace rdsim::core

// `layers` mode: the traced run. It never feeds the end-to-end metrics; it
// times calls into each layer's public functions from the benchmark's own
// code (spans.hpp) and records the campaign's call counts, so run.py can
// turn per-call costs into the per-layer table and the layer coverage.
//
// Parts, in order:
//   1. serial campaign, one span per run_subject; tables, digest, io
//   2. the same campaign pooled (pool efficiency, serial == pooled digest)
//   3. transport replay of subjects T1 and T2 (replay.hpp)
//   4. benchmark-built TeleopSessions for T1, one span per step()
//   5. a network-free loop of the sim, driver and trace layers for T1
//   6. NetemQdisc enqueue + dequeue under each paper fault
//   7. obs overhead: capped campaigns, plain vs collector, paired
// The obs part is skipped when obs is compiled out (RDSIM_OBS_ENABLED=OFF).
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check/contracts.hpp"
#include "core/campaign_hash.hpp"
#include "core/campaign_io.hpp"
#include "core/operator_subsystem.hpp"
#include "core/subjects.hpp"
#include "core/teleop.hpp"
#include "core/vehicle_subsystem.hpp"
#include "net/netem.hpp"
#include "obs/report.hpp"
#include "replay.hpp"
#include "sim/frame.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace campaign_bench {

namespace {

namespace core = rdsim::core;
namespace net = rdsim::net;
using rdsim::util::Duration;
using rdsim::util::TimePoint;

constexpr std::size_t kReplaySubjects = 2;
constexpr int kQdiscPacketsPerFault = 20000;
constexpr int kObsPairs = 10;
constexpr double kObsRunCapSeconds = 40.0;
constexpr int kEmptySpans = 20000;

std::uint16_t run_index(std::size_t subject, bool faulty) {
  return static_cast<std::uint16_t>(2 * subject + (faulty ? 1 : 0));
}

// The RunConfig ExperimentHarness::run_subject builds for one run; the
// seeds and plan stream are the harness's documented derivations.
core::RunConfig subject_run_config(const core::ExperimentHarness& harness,
                                   const core::SubjectProfile& profile, bool faulty,
                                   const rdsim::sim::Scenario& scenario) {
  const core::ExperimentConfig& c = harness.config();
  core::RunConfig rc;
  rc.run_id = profile.id + (faulty ? "-FI" : "-NFI");
  rc.subject_id = profile.id;
  rc.fault_injected = faulty;
  rc.rds = c.rds;
  rc.safety = c.safety;
  rc.driver = profile.driver;
  rc.mitigation = c.mitigation;
  rc.seed = rdsim::util::splitmix64(profile.seed ^ (faulty ? 0xc2b2ae3d27d4eb4fULL
                                                           : 0x9e3779b97f4a7c15ULL));
  if (faulty) {
    rdsim::util::Random rng{profile.seed, /*stream=*/0x706c616eULL};
    rc.plan = harness.make_fault_plan(scenario, rng);
  }
  return rc;
}

rdsim::sim::Scenario run_scenario(const core::ExperimentConfig& c) {
  rdsim::sim::Scenario s = rdsim::sim::make_test_route_scenario();
  if (c.run_time_limit > rdsim::units::Seconds{}) {
    s.time_limit = std::min(s.time_limit, c.run_time_limit);
  }
  return s;
}

struct CampaignCounts {
  double physics_steps{0.0};
  double ticks{0.0};
  double commands{0.0};  ///< client cadence x simulated time
  std::uint64_t frames_encoded{0};
  std::uint64_t frames_displayed{0};
  std::uint64_t segments{0};
  std::uint64_t retransmits{0};
  std::uint64_t acks{0};
  double data_packets{0.0};
};

CampaignCounts count_calls(const core::CampaignResult& campaign) {
  const core::RdsConfig& rds = campaign.config.rds;
  CampaignCounts c;
  for (const auto& s : campaign.subjects) {
    for (const core::RunResult* run : {&s.golden, &s.faulty}) {
      const double d = run->duration.value();
      c.physics_steps += std::ceil(d * rds.physics_hz);
      c.ticks += std::round(d * rds.comms_hz);
      c.commands += d * rds.station.command_rate_hz;
      c.frames_encoded += run->frames_encoded;
      c.frames_displayed += run->frames_displayed;
      for (const net::StreamStats* st : {&run->video_stats, &run->command_stats}) {
        c.segments += st->segments_sent;
        c.retransmits += st->retransmits_rto + st->retransmits_fast;
        c.acks += st->acks_sent;
      }
    }
  }
  c.data_packets = static_cast<double>(c.segments + c.retransmits) +
                   (rds.datagram_video ? static_cast<double>(c.frames_encoded) : 0.0) +
                   (rds.datagram_commands ? c.commands : 0.0);
  return c;
}

Layer tick_layer(const std::optional<net::FaultSpec>& fault) {
  if (!fault) return Layer::kCoreTickNone;
  if (fault->kind == net::FaultKind::kDelay) return Layer::kCoreTickDelay;
  if (fault->kind == net::FaultKind::kPacketLoss) return Layer::kCoreTickLoss;
  return Layer::kCoreTickNone;
}

/// Steps a benchmark-built session to the end, one span per tick. Returns
/// whether its result is bit-identical to the campaign's run.
bool timed_session(core::RunConfig rc, const rdsim::sim::Scenario& scenario,
                   const core::RunResult& reference, std::uint16_t run, SpanLog& log) {
  core::TeleopSession session{std::move(rc), scenario};
  for (;;) {
    const std::int64_t t0 = now_ns();
    const bool more = session.step();
    const std::int64_t t1 = now_ns();
    log.add(tick_layer(session.injector().active_fault()), run, t0, t1);
    if (!more) break;
  }
  return rdsim::check::hash_run(session.run()) == rdsim::check::hash_run(reference);
}

/// The sim, driver and trace layers without a network: frames go straight
/// from the vehicle's encoder to the operator, commands straight back.
/// Returns the commands sent.
std::uint64_t sim_loop(const core::ExperimentConfig& config, const core::RunConfig& rc,
                       const rdsim::sim::Scenario& scenario, double max_seconds,
                       std::uint16_t run, SpanLog& log) {
  const core::RdsConfig& rds = config.rds;
  core::VehicleSubsystem vehicle{rds, scenario, config.safety, rc.seed};
  if (config.mitigation.enabled) vehicle.enable_mitigation(config.mitigation.watchdog);
  core::DriverParams driver = rc.driver;  // station input latency, as the session adds it
  driver.reaction_time_s += rds.station.input_latency.to_seconds().value();
  core::OperatorSubsystem station{
      rds.station,
      core::DriverModel{driver, &vehicle.runtime().scenario(), &vehicle.world().road(),
                        rdsim::util::Random{rc.seed, 0x647269766572ULL}}};
  rdsim::trace::TraceRecorder recorder{rc.run_id, rc.subject_id, false, rds.log_hz};

  const Duration comms_dt = Duration::seconds(1.0 / rds.comms_hz);
  const Duration physics_dt = Duration::seconds(1.0 / rds.physics_hz);
  const auto physics_step = rdsim::units::Seconds::from_duration(physics_dt);
  const TimePoint end = TimePoint::from_seconds(max_seconds);
  TimePoint next_physics{};
  std::uint64_t commands = 0;
  for (TimePoint now{}; now < end; now += comms_dt) {
    while (next_physics <= now) {
      log.time(Layer::kSimPhysics, run, [&] { vehicle.step_physics(physics_step); });
      log.time(Layer::kTraceRecord, run, [&] { recorder.step(vehicle.world()); });
      next_physics += physics_dt;
    }
    const std::int64_t t0 = now_ns();
    auto frame = vehicle.maybe_encode_frame(now);
    if (frame) {
      log.add(Layer::kSimFrameEncode, run, t0, now_ns());
      const auto decoded = log.time(Layer::kSimFrameDecode, run, [&] {
        return rdsim::sim::WorldFrame::decode(frame->payload);
      });
      if (decoded) log.time(Layer::kCoreDriver, run, [&] { station.on_frame(*decoded, now); });
    }
    const auto command = log.time(Layer::kCoreDriver, run, [&] { return station.poll(now); });
    if (command) {
      ++commands;
      vehicle.on_command(*command, now);
    }
    if (vehicle.runtime().complete() || vehicle.runtime().timed_out()) break;
  }
  return commands;
}

/// One NetemQdisc enqueue plus the dequeue_ready that releases the packet,
/// per span; the span's run field carries the fault's index.
void qdisc_microbench(SpanLog& log) {
  class Sink final : public net::PacketSink {
   public:
    explicit Sink(net::Payload& slot) : slot_{&slot} {}
    void accept(net::Packet&& packet) override { *slot_ = std::move(packet.payload); }

   private:
    net::Payload* slot_;
  };
  const std::vector<net::FaultSpec> model = net::paper_fault_model();
  for (std::size_t f = 0; f < model.size(); ++f) {
    net::NetemQdisc qdisc{model[f].to_config(), /*seed=*/f + 1};
    net::Payload buffer;
    Sink sink{buffer};
    TimePoint now{};
    for (int i = 0; i < kQdiscPacketsPerFault; ++i) {
      if (buffer.empty()) buffer.assign(200, 0);  // the previous packet was lost
      net::Packet packet;
      packet.payload = std::move(buffer);
      buffer = net::Payload{};
      packet.wire_size = 65040;
      const std::int64_t t0 = now_ns();
      qdisc.enqueue(std::move(packet), now);
      qdisc.dequeue_ready(now + Duration::millis(60), sink);
      log.add(Layer::kNetQdisc, static_cast<std::uint16_t>(f), t0, now_ns());
      now += Duration::millis(100);
    }
  }
}

void print_stream_line(const char* what, const net::StreamStats& s) {
  std::fprintf(stderr,
               "    %-16s segments %llu, retransmits rto %llu fast %llu, acks %llu, "
               "dup-acks %llu, stale %llu\n",
               what, static_cast<unsigned long long>(s.segments_sent),
               static_cast<unsigned long long>(s.retransmits_rto),
               static_cast<unsigned long long>(s.retransmits_fast),
               static_cast<unsigned long long>(s.acks_sent),
               static_cast<unsigned long long>(s.dup_acks_seen),
               static_cast<unsigned long long>(s.stale_segments));
}

}  // namespace

int run_layers(const Options& opt) {
  SpanLog log;
  auto& registry = rdsim::check::Registry::instance();
  const core::ExperimentConfig config = make_config(opt.workload, opt.seed, opt.run_cap_s);
  const core::ExperimentHarness harness{config};
  const std::vector<core::SubjectProfile> roster = core::make_roster(config.seed);
  const rdsim::sim::Scenario scenario = run_scenario(config);
  std::vector<std::string> failures;

  for (int i = 0; i < kEmptySpans; ++i) log.time(Layer::kEmpty, kNoRun, [] {});

  // 1. Serial campaign, tables, digest and the bench cache's io path.
  core::CampaignResult campaign;
  campaign.config = config;
  campaign.subjects.resize(roster.size());
  const std::uint64_t v0 = registry.total_violations();
  const double c0 = cpu_now();
  for (std::size_t i = 0; i < roster.size(); ++i) {
    campaign.subjects[i] = log.time(Layer::kCoreSubject, static_cast<std::uint16_t>(i),
                                    [&] { return harness.run_subject(roster[i]); });
  }
  log.time(Layer::kMetricsTables, kNoRun, [&] { return render_paper_tables(campaign); });
  const std::uint64_t hash =
      log.time(Layer::kCheckHash, kNoRun, [&] { return rdsim::check::campaign_hash(campaign); });
  const double serial_cpu_s = cpu_now() - c0;
  const std::uint64_t violations = registry.total_violations() - v0;
  const auto reloaded = log.time(Layer::kCoreIo, kNoRun, [&] {
    return core::deserialize_campaign(core::serialize_campaign(campaign));
  });
  if (!reloaded || rdsim::check::campaign_hash(*reloaded) != hash) {
    failures.push_back("serialize/deserialize round trip changed the campaign");
  }
  const CampaignCounts counts = count_calls(campaign);
  const std::size_t no_fault_runs = faulty_runs_without_faults(campaign);

  // 2. The pooled runner on the same campaign.
  const std::size_t workers = worker_count();
  const std::int64_t p0 = now_ns();
  const std::uint64_t pooled_hash =
      rdsim::check::campaign_hash(harness.run_campaign_parallel(workers));
  log.add(Layer::kCoreCampaign, kNoRun, p0, now_ns());
  if (pooled_hash != hash) failures.push_back("pooled campaign digest differs from serial");

  // 3. Transport replay of the first subjects' runs.
  std::uint64_t replay_ticks = 0, replay_packets = 0, replay_data_packets = 0;
  std::size_t replay_runs = 0, replay_mismatched_runs = 0;
  std::fprintf(stderr, "transport replay vs campaign (%s, seed %llu):\n",
               workload_name(opt.workload), static_cast<unsigned long long>(opt.seed));
  for (std::size_t i = 0; i < std::min(kReplaySubjects, roster.size()); ++i) {
    for (const bool faulty : {false, true}) {
      const core::SubjectResult& subject = campaign.subjects[i];
      const core::RunResult& run = faulty ? subject.faulty : subject.golden;
      const core::RunConfig rc = subject_run_config(harness, roster[i], faulty, scenario);
      const ReplayResult rr =
          replay_transport({&config.rds, &config.mitigation, rc.seed, &run,
                            run_index(i, faulty)},
                           log);
      replay_ticks += rr.ticks;
      replay_packets += rr.packets;
      replay_data_packets += rr.data_packets;
      ++replay_runs;
      std::fprintf(stderr, "  %s: %llu ticks, %llu packets, %llu frames, %llu commands: %s\n",
                   rc.run_id.c_str(), static_cast<unsigned long long>(rr.ticks),
                   static_cast<unsigned long long>(rr.packets),
                   static_cast<unsigned long long>(rr.frames_encoded),
                   static_cast<unsigned long long>(rr.commands_sent),
                   rr.differences.empty() ? "counters match the campaign run"
                                          : "DIFFERS from the campaign run");
      print_stream_line("replay video", rr.video);
      print_stream_line("campaign video", run.video_stats);
      print_stream_line("replay command", rr.command);
      print_stream_line("campaign command", run.command_stats);
      if (!rr.differences.empty()) {
        ++replay_mismatched_runs;
        for (const std::string& d : rr.differences) {
          std::fprintf(stderr, "    differs (replay/campaign): %s\n", d.c_str());
        }
      }
    }
  }

  // 4. Per-tick cost on benchmark-built sessions (subject T1).
  bool sessions_match = true;
  for (const bool faulty : {false, true}) {
    const core::RunResult& reference =
        faulty ? campaign.subjects[0].faulty : campaign.subjects[0].golden;
    sessions_match &= timed_session(subject_run_config(harness, roster[0], faulty, scenario),
                                    scenario, reference, run_index(0, faulty), log);
  }
  if (!sessions_match) failures.push_back("benchmark-built session differs from the campaign");

  // 5. Sim, driver and trace layers on T1's golden run length.
  const std::uint64_t sim_loop_commands =
      sim_loop(config, subject_run_config(harness, roster[0], false, scenario), scenario,
               campaign.subjects[0].golden.duration.value(), run_index(0, false), log);

  // 6. Qdisc cost per packet under each paper fault.
  qdisc_microbench(log);

  // 7. Obs overhead: capped campaigns, paired, order alternating per pair;
  // the span's run field carries the pair index.
  if (rdsim::obs::compiled_in()) {
    const core::ExperimentConfig capped =
        make_config(opt.workload, opt.seed, kObsRunCapSeconds);
    for (int p = 0; p < kObsPairs; ++p) {
      std::uint64_t digests[2] = {0, 0};  // plain, attached
      for (const bool with_obs : {p % 2 == 1, p % 2 == 0}) {
        core::ExperimentHarness h{capped};
        rdsim::obs::CampaignCollector collector;
        if (with_obs) h.set_collector(&collector);
        const std::int64_t t0 = now_ns();
        digests[with_obs] = rdsim::check::campaign_hash(h.run_campaign_parallel(workers));
        log.add(with_obs ? Layer::kObsAttached : Layer::kObsPlain,
                static_cast<std::uint16_t>(p), t0, now_ns());
      }
      if (digests[0] != digests[1]) failures.push_back("obs collector changed the digest");
    }
  }

  const std::string span_path = opt.out_dir + "/spans_" + workload_name(opt.workload) + ".bin";
  if (!log.write(span_path)) failures.push_back("could not write " + span_path);

  std::printf("{\"mode\": \"layers\", \"workload\": \"%s\", \"seed\": %llu, \"workers\": %zu, "
              "\"run_cap_s\": %.17g, \"hash\": \"%016llx\", \"pooled_hash\": \"%016llx\", "
              "\"runs\": %zu, \"faulty_without_faults\": %zu, \"violations\": %llu, "
              "\"serial_cpu_s\": %.6f, \"mitigation\": %s, ",
              workload_name(opt.workload), static_cast<unsigned long long>(opt.seed),
              workers, opt.run_cap_s, static_cast<unsigned long long>(hash),
              static_cast<unsigned long long>(pooled_hash), 2 * campaign.subjects.size(),
              no_fault_runs, static_cast<unsigned long long>(violations), serial_cpu_s,
              config.mitigation.enabled ? "true" : "false");
  std::printf("\"counts\": {\"physics_steps\": %.0f, \"ticks\": %.0f, "
              "\"commands\": %.3f, \"frames_encoded\": %llu, \"frames_displayed\": %llu, "
              "\"segments\": %llu, \"retransmits\": %llu, \"acks\": %llu, "
              "\"data_packets\": %.3f}, ",
              counts.physics_steps, counts.ticks, counts.commands,
              static_cast<unsigned long long>(counts.frames_encoded),
              static_cast<unsigned long long>(counts.frames_displayed),
              static_cast<unsigned long long>(counts.segments),
              static_cast<unsigned long long>(counts.retransmits),
              static_cast<unsigned long long>(counts.acks), counts.data_packets);
  std::printf("\"replay\": {\"runs\": %zu, \"mismatched_runs\": %zu, \"ticks\": %llu, "
              "\"packets\": %llu, \"data_packets\": %llu}, ",
              replay_runs, replay_mismatched_runs, static_cast<unsigned long long>(replay_ticks),
              static_cast<unsigned long long>(replay_packets),
              static_cast<unsigned long long>(replay_data_packets));
  std::printf("\"sim_loop_commands\": %llu, ",
              static_cast<unsigned long long>(sim_loop_commands));
  std::printf("\"layers\": [");
  for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", kLayerNames[i]);
  }
  std::printf("], \"span_file\": \"%s\", \"spans\": %zu, \"failures\": [", span_path.c_str(),
              log.size());
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", failures[i].c_str());
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace campaign_bench

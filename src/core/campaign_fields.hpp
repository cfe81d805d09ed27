// Internal field lists over the campaign result types.
//
// One template per struct enumerates its fields exactly once; the archives in
// campaign_hash.cpp / campaign_io.cpp (hashing, serialization and
// deserialization) all walk the same lists, so the three views can never
// drift apart: any field added here is automatically hashed by
// check::campaign_hash and round-tripped by serialize_campaign.
//
// The object type is a template parameter so the same list instantiates over
// `T&` (reading into) and `const T&` (hashing / writing out). Archives
// provide: f64, u32, u64, i32, sz (std::size_t), b (bool), str,
// vec(v, element_fn), and opt_block(flag, fn) — a conditional block keyed on
// a bool field. opt_block is how opt-in subsystems (mitigation) extend the
// result types without perturbing existing golden hashes: the HashArchive
// folds *nothing at all* when the flag is false, so a run with the
// subsystem disabled hashes bit-identically to a build that predates it.
// (The serialized blob always carries the presence byte — that format
// change is what the campaign_io version bump covers.)
#pragma once

#include "core/experiment.hpp"

namespace rdsim::core::detail {

template <typename Ar, typename T>  // T: [const] DriverParams
void driver_fields(Ar& ar, T& d) {
  ar.f64(d.reaction_time_s);
  ar.f64(d.prediction_gain);
  ar.f64(d.neuromuscular_tau_s);
  ar.f64(d.wheel_rate_limit);
  ar.f64(d.steer_noise);
  ar.f64(d.noise_tau_s);
  ar.f64(d.steer_deadzone);
  ar.f64(d.control_rate_hz);
  ar.f64(d.lookahead_time_s);
  ar.f64(d.manoeuvre_lookahead_s);
  ar.f64(d.min_lookahead_m);
  ar.f64(d.near_gain);
  ar.f64(d.near_lead_s);
  ar.f64(d.startle_threshold_s);
  ar.f64(d.startle_duration_s);
  ar.f64(d.startle_gain);
  ar.f64(d.startle_noise_mult);
  ar.f64(d.idm_time_headway_s);
  ar.f64(d.idm_max_accel);
  ar.f64(d.idm_comfort_brake);
  ar.f64(d.idm_min_gap_m);
  ar.f64(d.emergency_ttc_s);
  ar.f64(d.position_noise_m);
  ar.f64(d.staleness_noise_gain);
  ar.f64(d.position_noise_tau_s);
  ar.f64(d.startle_jump_prob);
  ar.f64(d.startle_jump_m_per_s);
  ar.f64(d.vehicle_wheelbase_m);
  ar.f64(d.vehicle_max_steer_deg);
  ar.f64(d.speed_compliance);
  ar.f64(d.freeze_caution_s);
  ar.f64(d.caution_gain);
  ar.b(d.mirrored_steering);
}

template <typename Ar, typename T>  // T: [const] SubjectProfile
void profile_fields(Ar& ar, T& p) {
  ar.str(p.id);
  ar.i32(p.index);
  driver_fields(ar, p.driver);
  ar.u64(p.seed);
  ar.b(p.gaming_experience);
  ar.b(p.recent_gaming);
  ar.b(p.racing_game_experience);
  ar.i32(p.station_experience);
  ar.b(p.left_hand_driving);
}

template <typename Ar, typename T>  // T: [const] QoeStats
void qoe_fields(Ar& ar, T& q) {
  ar.qty(q.watch_time);
  ar.qty(q.frozen_time);
  ar.sz(q.freeze_episodes);
  ar.qty(q.longest_freeze);
  ar.qty(q.staleness_sum);
  ar.sz(q.staleness_samples);
  // QoeStats::transport is deliberately absent: it is a verbatim copy of
  // the stream counters already folded by stream_stats_fields below, and
  // double-hashing the copy would change every pre-existing golden hash.
}

template <typename Ar, typename T>  // T: [const] net::StreamStats
void stream_stats_fields(Ar& ar, T& s) {
  ar.u64(s.messages_sent);
  ar.u64(s.messages_delivered);
  ar.u64(s.segments_sent);
  ar.u64(s.retransmits_rto);
  ar.u64(s.retransmits_fast);
  ar.u64(s.acks_sent);
  ar.u64(s.dup_acks_seen);
  ar.u64(s.stale_segments);
  ar.qty(s.srtt);
  ar.qty(s.rto);
}

template <typename Ar, typename T>  // T: [const] trace::EgoSample
void ego_sample_fields(Ar& ar, T& e) {
  ar.f64(e.t);
  ar.u32(e.frame);
  ar.f64(e.x);
  ar.f64(e.y);
  ar.f64(e.z);
  ar.f64(e.vx);
  ar.f64(e.vy);
  ar.f64(e.vz);
  ar.f64(e.ax);
  ar.f64(e.ay);
  ar.f64(e.az);
  ar.f64(e.throttle);
  ar.f64(e.steer);
  ar.f64(e.brake);
}

template <typename Ar, typename T>  // T: [const] trace::OtherSample
void other_sample_fields(Ar& ar, T& o) {
  ar.u32(o.actor);
  ar.str(o.role);
  ar.f64(o.t);
  ar.f64(o.distance);
  ar.f64(o.x);
  ar.f64(o.y);
  ar.f64(o.z);
  ar.f64(o.vx);
  ar.f64(o.vy);
  ar.f64(o.vz);
  ar.f64(o.throttle);
  ar.f64(o.steer);
  ar.f64(o.brake);
}

template <typename Ar, typename T>  // T: [const] trace::RunTrace
void trace_fields(Ar& ar, T& t) {
  ar.str(t.run_id);
  ar.str(t.subject);
  ar.b(t.fault_injected_run);
  ar.vec(t.ego, [](Ar& a, auto& e) { ego_sample_fields(a, e); });
  ar.vec(t.others, [](Ar& a, auto& o) { other_sample_fields(a, o); });
  ar.vec(t.collisions, [](Ar& a, auto& c) {
    a.f64(c.t);
    a.u32(c.frame);
    a.u32(c.other);
    a.str(c.other_kind);
    a.f64(c.relative_speed);
  });
  ar.vec(t.lane_invasions, [](Ar& a, auto& l) {
    a.f64(l.t);
    a.u32(l.frame);
    a.str(l.marking);
    a.i32(l.from_lane);
    a.i32(l.to_lane);
  });
  ar.vec(t.faults, [](Ar& a, auto& f) {
    a.f64(f.t);
    a.str(f.fault_type);
    a.f64(f.value);
    a.b(f.added);
    a.str(f.label);
  });
}

template <typename Ar, typename T>  // T: [const] mitigate::MitigationSummary
void mitigation_summary_fields(Ar& ar, T& m) {
  ar.qty(m.dwell_nominal);
  ar.qty(m.dwell_degraded);
  ar.qty(m.dwell_impaired);
  ar.qty(m.dwell_link_loss);
  ar.u64(m.transitions);
  ar.u64(m.interventions);
  ar.u64(m.watchdog_firings);
  ar.u64(m.mrm_activations);
  ar.qty(m.mrm_time);
  ar.b(m.mrm_standstill);
  ar.qty(m.final_rtt);
  ar.f64(m.final_loss);
}

template <typename Ar, typename T>  // T: [const] mitigate::MitigationConfig
void mitigation_config_fields(Ar& ar, T& m) {
  ar.qty(m.estimator.update_period);
  ar.f64(m.estimator.rtt_alpha);
  ar.f64(m.estimator.loss_alpha);
  ar.qty(m.governor.degraded_rtt);
  ar.f64(m.governor.degraded_loss);
  ar.qty(m.governor.degraded_staleness);
  ar.qty(m.governor.impaired_rtt);
  ar.f64(m.governor.impaired_loss);
  ar.qty(m.governor.impaired_staleness);
  ar.qty(m.governor.link_loss_staleness);
  ar.f64(m.governor.exit_margin);
  ar.qty(m.governor.min_dwell);
  ar.qty(m.governor.degraded.speed_cap);
  ar.f64(m.governor.degraded.steer_rate_limit);
  ar.f64(m.governor.degraded.throttle_scale);
  ar.qty(m.governor.impaired.speed_cap);
  ar.f64(m.governor.impaired.steer_rate_limit);
  ar.f64(m.governor.impaired.throttle_scale);
  ar.qty(m.governor.link_loss.speed_cap);
  ar.f64(m.governor.link_loss.steer_rate_limit);
  ar.f64(m.governor.link_loss.throttle_scale);
  ar.qty(m.watchdog.deadline);
  ar.qty(m.watchdog.recover_age);
  ar.qty(m.watchdog.decel);
  ar.f64(m.watchdog.lane_gain);
  ar.f64(m.watchdog.heading_gain);
  ar.f64(m.watchdog.max_steer);
  ar.qty(m.watchdog.standstill);
  ar.f64(m.watchdog.hold_brake);
}

template <typename Ar, typename T>  // T: [const] RunResult
void run_fields(Ar& ar, T& r) {
  trace_fields(ar, r.trace);
  qoe_fields(ar, r.qoe);
  ar.b(r.completed);
  ar.b(r.timed_out);
  ar.qty(r.duration);
  stream_stats_fields(ar, r.video_stats);
  stream_stats_fields(ar, r.command_stats);
  ar.qty(r.mean_downlink_latency);
  ar.qty(r.mean_uplink_latency);
  ar.u64(r.frames_encoded);
  ar.u64(r.frames_displayed);
  ar.u64(r.frames_skipped_sender);
  ar.u64(r.safety_activations);
  ar.sz(r.faults_injected);
  ar.opt_block(r.mitigation.enabled,
               [&r](Ar& a) { mitigation_summary_fields(a, r.mitigation); });
}

template <typename Ar, typename T>  // T: [const] QuestionnaireResponse
void questionnaire_fields(Ar& ar, T& q) {
  ar.str(q.subject);
  ar.b(q.q1_gaming);
  ar.b(q.q1_recent);
  ar.b(q.q2_racing);
  ar.i32(q.q3_station_experience);
  ar.f64(q.q4_qoe);
  ar.b(q.q5_virtual_testing_useful);
  ar.b(q.q6_felt_difference);
}

template <typename Ar, typename T>  // T: [const] SubjectResult
void subject_fields(Ar& ar, T& s) {
  profile_fields(ar, s.profile);
  run_fields(ar, s.golden);
  run_fields(ar, s.faulty);
  questionnaire_fields(ar, s.questionnaire);
}

/// The campaign-level ExperimentConfig fields that shape the result. The
/// RdsConfig / SafetyMonitorConfig sub-configs are not folded (see
/// ExperimentConfig), so the existing golden hashes stay stable.
template <typename Ar, typename T>  // T: [const] ExperimentConfig
void experiment_config_fields(Ar& ar, T& c) {
  ar.u64(c.seed);
  ar.f64(c.poi_fault_probability);
  ar.vec(c.fault_weights, [](Ar& a, auto& w) { a.f64(w); });
  ar.qty(c.run_time_limit);
  ar.opt_block(c.mitigation.enabled,
               [&c](Ar& a) { mitigation_config_fields(a, c.mitigation); });
}

template <typename Ar, typename T>  // T: [const] CampaignResult
void campaign_fields(Ar& ar, T& c) {
  experiment_config_fields(ar, c.config);
  ar.vec(c.subjects, [](Ar& a, auto& s) { subject_fields(a, s); });
}

}  // namespace rdsim::core::detail

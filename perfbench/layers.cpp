#include "layers.h"

#include <fstream>
#include <future>
#include <map>
#include <optional>

#include "net/client.h"
#include "net/wire.h"
#include "serve/parse_service.h"

namespace perfbench {

namespace engine = parsec::engine;
namespace net = parsec::net;
using parsec::obs::Span;

namespace {

// A single wire encode/decode takes well under a microsecond, so one
// span covers this many repetitions of it.
constexpr int kWireReps = 20;
// Sentences per ParseService round-trip / fleet hop probe.
constexpr std::size_t kPairedSample = 200;
// Rate of the open-loop burst of the sample through a traced fleet,
// sent for workloads that are not themselves fleet workloads.
constexpr double kBurstRate = 200.0;

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

LayerProbes::LayerProbes(const Args& args,
                         const parsec::grammars::CdgBundle& bundle,
                         const engine::EngineSet& engines,
                         std::vector<parsec::cdg::Sentence> sample, Result& r)
    : args_(args),
      bundle_(bundle),
      engines_(engines),
      sample_(std::move(sample)),
      r_(r) {
  if (sample_.size() > kSample) sample_.resize(kSample);
  for (const auto& s : sample_) words_.push_back(s.words);
  reference_ = reference_hashes(bundle_.grammar, sample_);
  if (args_.plant_bad_hash) reference_.front() ^= 1;
}

void LayerProbes::untraced() {
  // One sentence per shape first, so the timed pass runs on a warm pool.
  std::map<int, std::size_t> first_of_length;
  for (std::size_t i = 0; i < sample_.size(); ++i)
    first_of_length.emplace(sample_[i].size(), i);
  for (const auto& [n, i] : first_of_length)
    engine::run_backend(engines_, engine::Backend::Serial, sample_[i],
                        &scratch_);

  std::vector<double> ms;
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    const auto t0 = Clock::now();
    const engine::BackendRun run = engine::run_backend(
        engines_, engine::Backend::Serial, sample_[i], &scratch_);
    ms.push_back(ms_between(t0, Clock::now()));
    stats_ += run.stats;
    r_.check(!run.cancelled, run.domains_hash, reference_[i]);
  }
  untraced_serial_ms_ = mean_of(ms);

  // Same-length chunks of at most kLanes, in order of first appearance.
  std::map<int, std::vector<std::size_t>> by_length;
  std::vector<int> order;
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    auto& group = by_length[sample_[i].size()];
    if (group.empty()) order.push_back(sample_[i].size());
    group.push_back(i);
  }
  for (int n : order) {
    const auto& group = by_length[n];
    for (std::size_t at = 0; at < group.size();
         at += parsec::cdg::BatchParser::kLanes) {
      const std::size_t end =
          std::min(group.size(), at + parsec::cdg::BatchParser::kLanes);
      batch_chunks_.emplace_back(group.begin() + static_cast<long>(at),
                                 group.begin() + static_cast<long>(end));
    }
  }
  batcher_ = std::make_unique<parsec::cdg::BatchParser>(bundle_.grammar);
  for (const auto& chunk : batch_chunks_) {
    std::vector<parsec::cdg::Sentence> lanes;
    for (std::size_t i : chunk) lanes.push_back(sample_[i]);
    engine::run_backend_batch(*batcher_, lanes);
  }
}

void LayerProbes::traced(const std::vector<Outcome>* fleet_pass,
                         const Fleet* traced_fleet) {
  const auto& serial = engines_.serial();
  parsec::cdg::NetworkOptions nopt;
  nopt.prebuild_arcs = engines_.options().serial.prebuild_arcs;

  // cdg: the serial pipeline of run_backend, one public call per phase.
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    parsec::cdg::Network* network = nullptr;
    std::uint64_t hash = 0;
    {
      Span span("bench.cdg.acquire", "bench");
      network = &scratch_.acquire(bundle_.grammar, sample_[i], nopt);
    }
    {
      Span span("bench.cdg.unary", "bench");
      serial.run_unary(*network);
    }
    {
      Span span("bench.cdg.binary", "bench");
      serial.run_binary(*network);
    }
    {
      Span span("bench.cdg.filter", "bench");
      network->filter();
    }
    {
      Span span("bench.cdg.hash", "bench");
      hash = engine::hash_domains(*network);
    }
    r_.check(true, hash, reference_[i]);
  }

  // cdg.batch: the SoA lane batches, on the same chunks as the warm-up.
  for (const auto& chunk : batch_chunks_) {
    std::vector<parsec::cdg::Sentence> lanes;
    for (std::size_t i : chunk) lanes.push_back(sample_[i]);
    std::vector<engine::BackendRun> runs;
    {
      Span span("bench.batch.run", "bench");
      span.arg("lanes", static_cast<std::int64_t>(lanes.size()));
      runs = engine::run_backend_batch(*batcher_, lanes);
    }
    for (std::size_t k = 0; k < chunk.size(); ++k)
      r_.check(!runs[k].cancelled, runs[k].domains_hash,
               reference_[chunk[k]]);
  }

  // serve: the short_batched service shape, fed the sample.
  parsec::serve::ParseService::Options sopt;
  sopt.threads = 3;
  sopt.enable_batching = true;
  parsec::serve::ParseService service(bundle_.grammar, sopt);
  std::vector<parsec::serve::ParseResponse> responses;
  for (std::size_t at = 0; at < sample_.size(); at += 64) {
    std::vector<parsec::serve::ParseRequest> reqs;
    for (std::size_t i = at; i < std::min(sample_.size(), at + 64); ++i) {
      parsec::serve::ParseRequest req;
      req.sentence = sample_[i];
      reqs.push_back(std::move(req));
    }
    for (auto& resp : service.parse_batch(std::move(reqs)))
      responses.push_back(std::move(resp));
  }
  const parsec::serve::ServiceStats batched = service.stats();
  occupancy_ = batched.batches == 0
                   ? 0.0
                   : static_cast<double>(batched.batched_requests) /
                         static_cast<double>(batched.batches *
                                             parsec::cdg::BatchParser::kLanes);
  fallback_share_ = 1.0 - static_cast<double>(batched.batched_requests) /
                              static_cast<double>(sample_.size());
  for (std::size_t i = 0; i < responses.size(); ++i)
    r_.check(responses[i].status == parsec::serve::RequestStatus::Ok,
             responses[i].domains_hash, reference_[i]);

  // serve overhead: one request in flight vs the bare engine call, in
  // alternating order, after one untimed round through the workers (the
  // batches above left their per-request network pools cold).
  const std::size_t paired = std::min(kPairedSample, sample_.size());
  std::vector<std::future<parsec::serve::ParseResponse>> warm_round;
  for (std::size_t i = 0; i < paired; ++i) {
    parsec::serve::ParseRequest req;
    req.sentence = sample_[i];
    warm_round.push_back(service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < paired; ++i) {
    const parsec::serve::ParseResponse resp = warm_round[i].get();
    r_.check(resp.status == parsec::serve::RequestStatus::Ok,
             resp.domains_hash, reference_[i]);
  }
  for (std::size_t i = 0; i < paired; ++i) {
    auto direct = [&] {
      Span span("bench.serve.direct", "bench");
      engine::run_backend(engines_, engine::Backend::Serial, sample_[i],
                          &scratch_);
    };
    auto round_trip = [&] {
      parsec::serve::ParseRequest req;
      req.sentence = sample_[i];
      parsec::serve::ParseResponse resp;
      {
        Span span("bench.serve.roundtrip", "bench");
        resp = service.submit(std::move(req)).get();
      }
      r_.check(resp.status == parsec::serve::RequestStatus::Ok,
               resp.domains_hash, reference_[i]);
    };
    if (i % 2) {
      direct();
      round_trip();
    } else {
      round_trip();
      direct();
    }
  }
  {
    Span span("bench.serve.stats", "bench");
    service.stats();
  }

  // net wire: encode/decode of the sample's request frames and of the
  // service's responses to them.
  double req_bytes = 0.0, resp_bytes = 0.0;
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    const net::WireRequest req = make_request(words_[i]);
    const net::WireResponse resp = net::to_wire(responses[i], 0);
    std::vector<std::uint8_t> req_buf, resp_buf;
    {
      Span span("bench.net.encode", "bench");
      for (int rep = 0; rep < kWireReps; ++rep) {
        req_buf.clear();
        resp_buf.clear();
        net::encode_request(req, req_buf);
        net::encode_response(resp, resp_buf);
      }
    }
    req_bytes += static_cast<double>(req_buf.size());
    resp_bytes += static_cast<double>(resp_buf.size());
    net::FrameHeader h;
    net::WireRequest req_out;
    net::WireResponse resp_out;
    bool ok = true;
    {
      Span span("bench.net.decode", "bench");
      for (int rep = 0; rep < kWireReps; ++rep) {
        ok &= net::decode_header(req_buf.data(), req_buf.size(), h) ==
                  net::DecodeStatus::Ok &&
              net::decode_request(req_buf.data() + net::kHeaderSize,
                                  h.payload_len, req_out, h.version) ==
                  net::DecodeStatus::Ok;
        ok &= net::decode_header(resp_buf.data(), resp_buf.size(), h) ==
                  net::DecodeStatus::Ok &&
              net::decode_response(resp_buf.data() + net::kHeaderSize,
                                   h.payload_len, resp_out, h.version) ==
                  net::DecodeStatus::Ok;
      }
    }
    r_.check(ok && req_out.words == words_[i], resp_out.domains_hash,
             reference_[i]);
  }
  request_bytes_ = req_bytes / static_cast<double>(sample_.size());
  response_bytes_ = resp_bytes / static_cast<double>(sample_.size());

  // net fleet pass: the open loop through a traced fleet.
  std::string err;
  std::vector<Outcome> burst;
  std::unique_ptr<Fleet> burst_fleet;
  if (!fleet_pass) {
    burst_fleet = Fleet::start(args_.bin_dir, args_.out_dir + "/burst",
                               /*traced=*/true, &err);
    if (!burst_fleet) throw std::runtime_error("fleet: " + err);
    burst = open_loop(burst_fleet->router_port(), words_, kBurstRate, 2);
    for (std::size_t i = 0; i < burst.size(); ++i)
      r_.check(burst[i].ok, burst[i].hash, reference_[i]);
    if (!burst_fleet->stop())
      throw std::runtime_error("fleet did not drain cleanly");
    fleet_pass = &burst;
    traced_fleet = burst_fleet.get();
  }
  parsec::util::Quantiles lag;
  for (const auto& o : *fleet_pass) lag.add(o.send_lag_ms);
  send_lag_p99_ms_ = lag.p99();
  cache_hit_ratio_ = traced_fleet->cache_hit_ratio();
  fleet_traces_ = traced_fleet->trace_files();

  // net hop: a shard round trip direct vs through the router, both on
  // result-cache hits (each sentence is sent once first), so the
  // difference is the router hop and no parse time hides it.
  auto hop_fleet = Fleet::start(args_.bin_dir, args_.out_dir + "/hop",
                                /*traced=*/false, &err);
  if (!hop_fleet) throw std::runtime_error("fleet: " + err);
  auto router = net::Client::connect("127.0.0.1", hop_fleet->router_port(),
                                     &err);
  std::vector<std::optional<net::Client>> shards;
  for (int k = 0; k < Fleet::kShards; ++k)
    shards.push_back(
        net::Client::connect("127.0.0.1", hop_fleet->shard_port(k), &err));
  for (std::size_t i = 0; i < paired; ++i) {
    const net::WireRequest req = make_request(words_[i]);
    net::WireResponse warm, direct, routed;
    bool ok = router && router->request(req, warm, &err, 10000);
    auto& shard = shards[net::route_hash(req, true) % Fleet::kShards];
    auto via_shard = [&] {
      Span span("bench.net.shard", "bench");
      ok = ok && shard && shard->request(req, direct, &err, 10000);
    };
    auto via_router = [&] {
      Span span("bench.net.router", "bench");
      ok = ok && router->request(req, routed, &err, 10000);
    };
    if (i % 2) {
      via_shard();
      via_router();
    } else {
      via_router();
      via_shard();
    }
    r_.check(ok && direct.status == parsec::serve::RequestStatus::Ok,
             direct.domains_hash, reference_[i]);
    r_.check(ok && routed.status == parsec::serve::RequestStatus::Ok,
             routed.domains_hash, reference_[i]);
  }
  if (!hop_fleet->stop())
    throw std::runtime_error("fleet did not drain cleanly");
}

void LayerProbes::finish(const parsec::obs::TraceSession& session,
                         double traced_p50_ms, double untraced_p50_ms) {
  std::map<std::string, std::vector<double>> ms;
  std::int64_t batch_lanes = 0;
  for (const auto& e : session.events()) {
    const std::string name = e.name;
    if (name.rfind("bench.", 0) != 0) continue;
    ms[name].push_back(static_cast<double>(e.dur_ns) / 1e6);
    if (name == "bench.batch.run") batch_lanes += e.args[0].i;
  }
  auto sum = [&](const char* n) {
    double s = 0.0;
    for (double x : ms[n]) s += x;
    return s;
  };

  const double acquire = mean_of(ms["bench.cdg.acquire"]);
  const double unary = mean_of(ms["bench.cdg.unary"]);
  const double binary = mean_of(ms["bench.cdg.binary"]);
  const double filter = mean_of(ms["bench.cdg.filter"]);
  const double hash = mean_of(ms["bench.cdg.hash"]);
  const double phases = acquire + unary + binary + filter + hash;
  r_.set("cdg.acquire_ms", acquire, "ms");
  r_.set("cdg.acquire_share", acquire / phases, "ratio");
  r_.set("cdg.unary_ms", unary, "ms");
  r_.set("cdg.binary_ms", binary, "ms");
  r_.set("cdg.binary_share", binary / phases, "ratio");
  r_.set("cdg.filter_ms", filter, "ms");
  r_.set("cdg.hash_ms", hash, "ms");
  r_.set("cdg.phase_sum_gap",
         (phases - untraced_serial_ms_) / untraced_serial_ms_, "ratio");
  r_.set("cdg.arena_bytes", static_cast<double>(scratch_.arena_bytes()),
         "bytes");

  const double n = static_cast<double>(sample_.size());
  const auto& c = stats_.network;
  const double evals = static_cast<double>(c.effective_binary_evals());
  r_.set("cdg.effective_binary_evals", evals / n, "count");
  r_.set("cdg.masked_pair_share",
         evals > 0.0 ? 2.0 * static_cast<double>(c.masked_binary_pairs) / evals
                     : 0.0,
         "ratio");
  r_.set("cdg.tile_sweeps", static_cast<double>(c.tile_sweeps) / n, "count");
  r_.set("cdg.simd_lane_words", static_cast<double>(c.simd_lane_words) / n,
         "count");
  r_.set("cdg.eliminations", static_cast<double>(c.eliminations) / n, "count");

  r_.set("batch.ms_per_lane",
         sum("bench.batch.run") / static_cast<double>(batch_lanes), "ms");
  r_.set("batch.occupancy", occupancy_, "ratio");
  r_.set("batch.fallback_share", fallback_share_, "ratio");

  r_.set("serve.overhead_us",
         (median(ms["bench.serve.roundtrip"]) -
          median(ms["bench.serve.direct"])) * 1e3,
         "us");
  r_.set("serve.stats_call_ms", sum("bench.serve.stats"), "ms");
  r_.set("serve.cache_hit_ratio", cache_hit_ratio_, "ratio");

  r_.set("net.encode_us", mean_of(ms["bench.net.encode"]) * 1e3 / kWireReps,
         "us");
  r_.set("net.decode_us", mean_of(ms["bench.net.decode"]) * 1e3 / kWireReps,
         "us");
  r_.set("net.request_bytes", request_bytes_, "bytes");
  r_.set("net.response_bytes", response_bytes_, "bytes");
  const double shard_ms = median(ms["bench.net.shard"]);
  r_.set("net.shard_rtt_ms", shard_ms, "ms");
  r_.set("net.router_hop_ms", median(ms["bench.net.router"]) - shard_ms, "ms");
  r_.set("loadgen.send_lag_p99_ms", send_lag_p99_ms_, "ms");
  r_.set("obs.trace_overhead", traced_p50_ms / untraced_p50_ms, "ratio");

  // Bases of the shares and per-sentence counts above.
  r_.report["layer_bases"] = JsonValue::make_object({
      {"cdg.sentences", JsonValue::make_number(n)},
      {"cdg.phase_sum_ms", JsonValue::make_number(phases)},
      {"cdg.untraced_run_backend_ms", JsonValue::make_number(untraced_serial_ms_)},
      {"cdg.effective_binary_evals_total", JsonValue::make_number(evals)},
      {"batch.lanes", JsonValue::make_number(static_cast<double>(batch_lanes))},
      {"obs.traced_p50_ms", JsonValue::make_number(traced_p50_ms)},
      {"obs.untraced_p50_ms", JsonValue::make_number(untraced_p50_ms)},
  });

  const std::string path = args_.out_dir + "/bench.trace.json";
  std::ofstream out(path);
  session.write_chrome_trace(out);
  std::vector<JsonValue> traces = {JsonValue::make_string(path)};
  for (const auto& t : fleet_traces_) traces.push_back(JsonValue::make_string(t));
  r_.report["traces"] = JsonValue::make_array(std::move(traces));
}

}  // namespace perfbench

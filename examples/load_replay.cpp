// load_replay — the serve-mode load generator and parity harness.
//
// Replays the whole built-in benchmark corpus against a live Server over
// its Unix-socket transport with N concurrent clients (default 4), twice:
// a COLD pass (empty process-wide minimization memo) and WARM passes
// (every spec repeated, so the (F,D,R)-keyed cache answers the
// minimizations).  For every response it checks the deterministic payload
// byte-for-byte against a serial BatchRunner reference over the same
// manifest — the proof that concurrent execution changes timing only.
//
// Output: BENCH_serve.json (bench_gate-compatible) with a client-observed
// latency histogram (p50/p90/p99), per-pass throughput, memo-cache deltas
// and the in-run warm_over_cold ratio the gate tracks.
//
//   load_replay [--clients N] [--repeats R] [--out FILE] [--socket PATH]
//               [--smoke]
//
// Exits non-zero on any payload mismatch, internal-class failure, or a warm
// pass the memo did not answer in full (one hit per warm request, no
// misses): the warm_over_cold timing ratio alone cannot tell a broken memo
// from a fast minimizer.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "nshot/batch.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/strings.hpp"

namespace {

using namespace nshot;
using serve::WireRequest;

struct Cli {
  int clients = 4;
  int repeats = 3;  // 1 cold pass + (repeats-1) warm passes
  bool smoke = false;
  std::string out = "BENCH_serve.json";
  std::string socket_path = "/tmp/nshot_load_replay.sock";
};

struct Sample {
  std::string id;
  std::string payload;    // timing-stripped response (== payload_json bytes)
  double roundtrip_ms = 0.0;  // client-observed send -> response
  double server_ms = 0.0;     // the response's own elapsed_ms
  std::string code;           // error code name ("" when ok)
};

/// Cut the trailing "elapsed_ms"/"attempts" members off a wire response:
/// what remains is exactly Response::payload_json().
std::string strip_timing(const std::string& line) {
  const std::size_t pos = line.rfind(",\"elapsed_ms\":");
  return pos == std::string::npos ? line : line.substr(0, pos) + "}";
}

std::vector<Sample> run_pass(const std::string& socket_path,
                             const std::vector<WireRequest>& requests, int clients) {
  std::vector<Sample> samples(requests.size());
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::SocketClient client(socket_path);
      for (std::size_t i = c; i < requests.size(); i += clients) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string line = client.roundtrip(requests[i]);
        const auto t1 = std::chrono::steady_clock::now();
        Sample& sample = samples[i];
        sample.id = requests[i].request.id;
        sample.roundtrip_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        sample.payload = strip_timing(line);
        const JsonValue doc = parse_json(line, "response line");
        sample.server_ms = doc.number_or("elapsed_ms", 0.0);
        if (const JsonValue* error = doc.find("error"))
          sample.code = error->string_or("code", "internal");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return samples;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t at = static_cast<std::size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(at, sorted.size() - 1)];
}

struct PassStats {
  int requests = 0;
  double wall_ms = 0.0;
  double server_ms_mean = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;
  double throughput_rps = 0.0;
  long memo_hits = 0, memo_misses = 0;  // delta over the pass
};

PassStats pass_stats(const std::vector<Sample>& samples, double wall_ms,
                     const serve::ServeStats& before, const serve::ServeStats& after) {
  PassStats stats;
  stats.requests = static_cast<int>(samples.size());
  stats.wall_ms = wall_ms;
  std::vector<double> latencies;
  double server_total = 0.0;
  for (const Sample& sample : samples) {
    latencies.push_back(sample.roundtrip_ms);
    server_total += sample.server_ms;
  }
  std::sort(latencies.begin(), latencies.end());
  stats.server_ms_mean = samples.empty() ? 0.0 : server_total / samples.size();
  stats.p50_ms = percentile(latencies, 0.50);
  stats.p90_ms = percentile(latencies, 0.90);
  stats.p99_ms = percentile(latencies, 0.99);
  stats.max_ms = latencies.empty() ? 0.0 : latencies.back();
  stats.throughput_rps = wall_ms > 0 ? samples.size() / (wall_ms / 1000.0) : 0.0;
  stats.memo_hits = after.memo_hits - before.memo_hits;
  stats.memo_misses = after.memo_misses - before.memo_misses;
  return stats;
}

void write_pass(JsonWriter& json, const char* name, const PassStats& stats) {
  json.key(name).begin_object();
  json.key("requests").value(stats.requests);
  json.key("wall_ms").value(stats.wall_ms);
  json.key("server_ms_mean").value(stats.server_ms_mean);
  json.key("p50_ms").value(stats.p50_ms);
  json.key("p90_ms").value(stats.p90_ms);
  json.key("p99_ms").value(stats.p99_ms);
  json.key("max_ms").value(stats.max_ms);
  json.key("throughput_rps").value(stats.throughput_rps);
  json.key("memo_hits").value(stats.memo_hits);
  json.key("memo_misses").value(stats.memo_misses);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw Error(arg + " requires a value");
      return argv[++i];
    };
    try {
      if (arg == "--clients")
        cli.clients = parse_int(next(), 1, 256, "--clients");
      else if (arg == "--repeats")
        cli.repeats = parse_int(next(), 2, 100, "--repeats");
      else if (arg == "--out")
        cli.out = next();
      else if (arg == "--socket")
        cli.socket_path = next();
      else if (arg == "--smoke")
        cli.smoke = true;
      else
        throw Error("unknown option " + arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  try {
    // The corpus: every built-in Table 2 benchmark, synthesis-only (the
    // minimization stage is what the shared memo accelerates; the result
    // payloads stay fully deterministic).
    std::string manifest;
    std::vector<WireRequest> requests;
    int client_index = 0;
    for (const auto& info : bench_suite::all_benchmarks()) {
      manifest += info.name + " bench:" + info.name + "\n";
      WireRequest wire;
      wire.client = "client-" + std::to_string(client_index++ % cli.clients);
      wire.request.id = info.name;
      wire.request.kind = "synthesis";
      wire.request.spec = "bench:" + info.name;
      requests.push_back(wire);
    }

    // Live server on a Unix socket.  The concurrent passes run FIRST so
    // the cold pass really starts on an empty process-wide minimization
    // memo; the serial reference (same process, payloads are timing-free)
    // runs afterwards.
    serve::ServeOptions sopt;
    sopt.pipeline.verify_conformance = false;
    sopt.pipeline.stress_test = false;
    serve::Server server(sopt);
    serve::SocketListener listener(cli.socket_path, server);

    const serve::ServeStats s0 = server.stats();
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<Sample> cold_samples = run_pass(cli.socket_path, requests, cli.clients);
    auto t1 = std::chrono::steady_clock::now();
    const serve::ServeStats s1 = server.stats();
    const PassStats cold = pass_stats(
        cold_samples, std::chrono::duration<double, std::milli>(t1 - t0).count(), s0, s1);

    std::vector<Sample> warm_samples;
    t0 = std::chrono::steady_clock::now();
    for (int r = 1; r < cli.repeats; ++r) {
      const std::vector<Sample> pass = run_pass(cli.socket_path, requests, cli.clients);
      warm_samples.insert(warm_samples.end(), pass.begin(), pass.end());
    }
    t1 = std::chrono::steady_clock::now();
    const serve::ServeStats s2 = server.stats();
    const PassStats warm = pass_stats(
        warm_samples, std::chrono::duration<double, std::milli>(t1 - t0).count(), s1, s2);

    listener.stop();
    server.drain();

    // Serial reference: the exact same runs through BatchRunner, payloads
    // recorded.  kind "synthesis" == conformance/stress off.
    BatchOptions bopt;
    bopt.record_payloads = true;
    bopt.pipeline.verify_conformance = false;
    bopt.pipeline.stress_test = false;
    BatchRunner runner(bopt);
    const BatchSummary serial = runner.run(BatchRunner::parse_manifest(manifest));
    std::map<std::string, std::string> reference;
    for (const BatchRunResult& run : serial.runs) reference[run.id] = run.payload;
    if (serial.failed > 0) {
      std::fprintf(stderr, "error: serial reference pass had %d failure(s)\n", serial.failed);
      return 1;
    }

    // Parity + health over every concurrent sample.
    int mismatches = 0, internal_failures = 0;
    auto check = [&](const std::vector<Sample>& samples) {
      for (const Sample& sample : samples) {
        if (sample.code == "internal") ++internal_failures;
        const auto it = reference.find(sample.id);
        if (it == reference.end() || it->second != sample.payload) {
          if (++mismatches <= 3)
            std::fprintf(stderr, "payload mismatch for %s:\n  serial: %s\n  serve:  %s\n",
                         sample.id.c_str(),
                         it == reference.end() ? "<missing>" : it->second.c_str(),
                         sample.payload.c_str());
        }
      }
    };
    check(cold_samples);
    check(warm_samples);
    const bool byte_identical = mismatches == 0;
    // Every warm request repeats a spec the cold pass already minimized.
    const bool memo_answered_warm =
        warm.memo_misses == 0 && warm.memo_hits == static_cast<long>(warm.requests);
    if (!memo_answered_warm)
      std::fprintf(stderr,
                   "error: warm pass memo_hits %ld / memo_misses %ld over %d requests "
                   "(expected one hit per request)\n",
                   warm.memo_hits, warm.memo_misses, warm.requests);
    const double warm_over_cold =
        warm.server_ms_mean > 0 ? cold.server_ms_mean / warm.server_ms_mean : 0.0;

    JsonWriter json;
    json.begin_object();
    json.key("smoke").value(cli.smoke);
    json.key("byte_identical").value(byte_identical);
    json.key("clients").value(cli.clients);
    json.key("repeats").value(cli.repeats);
    json.key("corpus").value(static_cast<int>(requests.size()));
    json.key("requests").value(static_cast<int>(cold_samples.size() + warm_samples.size()));
    json.key("internal_failures").value(internal_failures);
    write_pass(json, "cold", cold);
    write_pass(json, "warm", warm);
    json.key("warm_over_cold").value(warm_over_cold);
    json.end_object();
    const std::string doc = json.str();

    std::ofstream out(cli.out);
    if (!out) throw Error("cannot write " + cli.out);
    out << doc << "\n";

    std::printf("%s\n", doc.c_str());
    std::fprintf(stderr,
                 "load_replay: %zu requests over %d clients — cold mean %.3f ms, warm mean "
                 "%.3f ms (x%.2f), %d mismatch(es), %d internal -> %s\n",
                 cold_samples.size() + warm_samples.size(), cli.clients, cold.server_ms_mean,
                 warm.server_ms_mean, warm_over_cold, mismatches, internal_failures,
                 cli.out.c_str());
    return byte_identical && internal_failures == 0 && memo_answered_warm ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

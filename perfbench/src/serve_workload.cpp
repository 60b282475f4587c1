// serve_open: seeded Poisson arrivals against sgnn::serve::Server at three
// frozen rates, a rate ladder for the highest sustainable rate, an unloaded
// service-time probe and an all-miss burst. Latency is timed from each
// request's scheduled send, so a stall delays every request behind it.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "sgnn/nn/model_io.hpp"
#include "sgnn/obs/metrics.hpp"
#include "sgnn/potential/potential.hpp"
#include "sgnn/serve/server.hpp"
#include "sgnn/tensor/ops.hpp"
#include "sgnn/train/loss.hpp"
#include "sgnn/util/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace sgnn;
using serve::InferenceResult;

namespace {

// All-miss capacity of this request mix (every request a fresh structure),
// measured once with back-to-back bursts on a 4-core x86-64 (AVX2) machine
// and frozen: the phase rates are 1/4, 1/2 and 3/4 of it. Cache hits lift
// the sustainable rate above it, which max_rate_rps measures.
constexpr double kCapacity = 80.0;  // requests per second
// The rate ladder: 50 * 1.05^k req/s, k = 0..40 (5% steps, 50 to 352).
constexpr int kLadderRungs = 41;
double ladder_rate(int k) { return 50.0 * std::pow(1.05, k); }
constexpr double kLatencyLimit = 0.25;  // s, on the p99
constexpr int kWorkers = 2;
// A failed or refused request counts as missing every latency limit.
constexpr double kFailedLatency = 1000.0;
// Generator lateness beyond this on the p99 makes the run invalid.
constexpr double kMaxLate = 0.05;
// Relative tolerance of a served value against a direct forward of the same
// structure on the same weights (batching may change summation order).
constexpr double kTolerance = 1e-9;

struct Reply {
  std::int64_t request = 0;  ///< index into the phase's stream
  RequestTiming timing;
  double returned = 0;  ///< when submit() returned
  bool ok = false;
  bool hit = false;
  double energy = 0;
  std::vector<Vec3> forces;
};

struct Phase {
  std::vector<Reply> replies;
  std::int64_t backlog_max = 0;

  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const Reply& r : replies) {
      out.push_back(r.ok ? r.timing.latency() : kFailedLatency);
    }
    return out;
  }
  /// Latencies of the requests that reached a worker (cache misses and
  /// failures). Hits, about 40% of requests, answer inside submit() in a
  /// fraction of a millisecond; a median over all requests would sit on the
  /// edge between the two groups and jump with the hit share.
  std::vector<double> miss_latencies() const {
    std::vector<double> out;
    for (const Reply& r : replies) {
      if (!r.ok || !r.hit) {
        out.push_back(r.ok ? r.timing.latency() : kFailedLatency);
      }
    }
    return out;
  }
  std::int64_t failed() const {
    return std::count_if(replies.begin(), replies.end(),
                         [](const Reply& r) { return !r.ok; });
  }
};

double now_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void take(Reply& reply, std::future<InferenceResult>& future) {
  try {
    InferenceResult result = future.get();
    reply.ok = std::isfinite(result.energy);
    reply.hit = result.cache_hit;
    reply.energy = result.energy;
    reply.forces = std::move(result.forces);
  } catch (const std::exception&) {
    reply.ok = false;
  }
}

/// Sends `stream[i]` at `schedule[i]` seconds after the phase start and
/// timestamps each reply. A collector thread polls the outstanding futures,
/// so completion times do not depend on completion order. Sending stops
/// early once more than `max_outstanding` requests wait (an overloaded
/// ramp); the replies then cover only the requests sent.
Phase open_loop(serve::Server& server, const std::vector<ServeRequest>& stream,
                const std::vector<double>& schedule,
                std::size_t max_outstanding = SIZE_MAX) {
  Phase phase;
  phase.replies.resize(schedule.size());
  std::mutex mutex;  // guards outstanding and sending_done
  std::deque<std::pair<std::size_t, std::future<InferenceResult>>> outstanding;
  bool sending_done = false;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);

  // Only the collector erases from `outstanding`, and deque::push_back keeps
  // references valid, so it may wait on the oldest future without the lock.
  std::thread collector([&] {
    while (true) {
      std::future<InferenceResult>* oldest = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        for (auto it = outstanding.begin(); it != outstanding.end();) {
          if (it->second.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++it;
            continue;
          }
          Reply& reply = phase.replies[it->first];
          reply.timing.done = now_since(start);
          take(reply, it->second);
          it = outstanding.erase(it);
        }
        if (sending_done && outstanding.empty()) return;
        if (!outstanding.empty()) oldest = &outstanding.front().second;
      }
      if (oldest != nullptr) {
        oldest->wait_for(std::chrono::microseconds(200));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const ServeRequest& request = stream[i];
    serve::InferenceRequest message{request.structure, request.forces};
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i])));
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (outstanding.size() > max_outstanding) {
        phase.replies.resize(i);
        break;
      }
    }
    Reply& reply = phase.replies[i];
    reply.request = static_cast<std::int64_t>(i);
    reply.timing.scheduled = schedule[i];
    reply.timing.sent = now_since(start);
    try {
      std::future<InferenceResult> future = server.submit(std::move(message));
      reply.returned = now_since(start);
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        reply.timing.done = reply.returned;
        take(reply, future);  // a cache hit answers inside submit()
        continue;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      outstanding.emplace_back(i, std::move(future));
      phase.backlog_max = std::max(
          phase.backlog_max, static_cast<std::int64_t>(outstanding.size()));
    } catch (const std::exception&) {
      reply.returned = reply.timing.done = now_since(start);
      reply.ok = false;  // refused (queue full) or invalid
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    sending_done = true;
  }
  collector.join();
  return phase;
}

/// One request at a time: the unloaded service time of each request.
Phase closed_loop(serve::Server& server,
                  const std::vector<ServeRequest>& stream) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Reply reply;
    reply.request = static_cast<std::int64_t>(i);
    reply.timing.scheduled = reply.timing.sent = now_since(start);
    try {
      std::future<InferenceResult> future =
          server.submit({stream[i].structure, stream[i].forces});
      reply.returned = now_since(start);
      take(reply, future);
    } catch (const std::exception&) {
      reply.ok = false;
    }
    reply.timing.done = now_since(start);
    phase.replies.push_back(std::move(reply));
  }
  return phase;
}

/// Whether the requests scheduled in [begin, end) of `phase` met the
/// ladder's test at `rate`: all sent and answered, the tail latency within
/// the limit, and no growing backlog: at `end`, no more requests are still
/// waiting than the server could clear within the limit at this rate.
bool sustainable(const Phase& phase, double begin, double end, double rate,
                 std::size_t scheduled) {
  std::vector<double> lat;
  std::int64_t waiting = 0;
  for (const Reply& r : phase.replies) {
    if (r.timing.scheduled < begin || r.timing.scheduled >= end) continue;
    if (!r.ok) return false;
    lat.push_back(r.timing.latency());
    if (r.timing.done > end) ++waiting;
  }
  return lat.size() == scheduled && !lat.empty() &&
         tail(lat, 0.99).value <= kLatencyLimit &&
         static_cast<double>(waiting) <= rate * kLatencyLimit;
}

/// Model output of one structure computed directly, outside the server.
struct Direct {
  double energy = 0;
  std::vector<Vec3> forces;
};

Direct direct_forward(const EGNNModel& model, const AtomicStructure& s,
                      bool forces) {
  const MolecularGraph graph =
      MolecularGraph::from_structure(s, model.config().cutoff);
  GraphBatch batch = GraphBatch::from_graphs(std::vector<MolecularGraph>{graph});
  Direct out;
  if (!forces) {
    const autograd::NoGradGuard guard;
    out.energy = model.forward(batch).energy.data()[0];
    return out;
  }
  batch.positions.set_requires_grad(true);
  const Tensor energy = model.forward(batch).energy;
  out.energy = energy.data()[0];
  sum(energy).backward();
  const real* grad = batch.positions.grad().data();
  for (std::int64_t a = 0; a < graph.num_nodes(); ++a) {
    const auto row = static_cast<std::size_t>(a) * 3;
    out.forces.push_back({-grad[row], -grad[row + 1], -grad[row + 2]});
  }
  return out;
}

bool close_to(double served, double direct, double scale) {
  return std::abs(served - direct) <= kTolerance * std::max(1.0, scale);
}

struct Checked {
  std::vector<double> losses;  ///< per reply, against the teacher labels
  std::int64_t count = 0;
  double worst_relative = 0;
};

/// Compares one reply with a direct forward (and -dE/dx for force
/// requests), and adds its multitask loss against the teacher labels.
void check_reply(Result& result, const EGNNModel& model,
                 const ReferencePotential& teacher, const ServeRequest& request,
                 const Reply& reply, Checked& checked) {
  if (!reply.ok) return;
  const Direct direct = direct_forward(model, request.structure, request.forces);
  const double scale = std::abs(direct.energy);
  checked.worst_relative =
      std::max(checked.worst_relative,
               std::abs(reply.energy - direct.energy) / std::max(1.0, scale));
  result.check(close_to(reply.energy, direct.energy, scale),
               "served energy " + json_number(reply.energy) +
                   " differs from the direct forward " +
                   json_number(direct.energy));
  const PotentialResult label = teacher.evaluate(request.structure);
  const double atoms = static_cast<double>(request.structure.num_atoms());
  double loss = std::pow((reply.energy - label.energy) / atoms, 2);
  if (request.forces) {
    result.check(reply.forces.size() == direct.forces.size(),
                 "served force count differs from the atom count");
    double force_scale = 0;
    for (const Vec3& f : direct.forces) {
      force_scale = std::max({force_scale, std::abs(f.x), std::abs(f.y),
                              std::abs(f.z)});
    }
    double force_se = 0;
    for (std::size_t a = 0; a < reply.forces.size() && a < direct.forces.size(); ++a) {
      const Vec3& s = reply.forces[a];
      const Vec3& d = direct.forces[a];
      result.check(close_to(s.x, d.x, force_scale) &&
                       close_to(s.y, d.y, force_scale) &&
                       close_to(s.z, d.z, force_scale),
                   "served force differs from -dE/dx of the direct forward");
      const Vec3 e = s - label.forces[a];
      force_se += e.x * e.x + e.y * e.y + e.z * e.z;
    }
    loss += LossWeights{}.force * force_se / (3 * atoms);
  }
  checked.losses.push_back(loss);
  ++checked.count;
}

/// A phase's replies together with the requests they answered.
struct Served {
  const std::vector<ServeRequest>* stream;
  const Phase* phase;
};

/// Cache hits must equal a miss that filled the entry: the energy
/// bit-exactly, and forces once mapped through the canonical atom order.
/// The cache outlives a phase, so misses are collected over every phase.
void check_hits(Result& result, const std::vector<Served>& served) {
  struct Miss {
    double energy;
    std::vector<Vec3> canonical_forces;
  };
  std::map<std::string, std::vector<Miss>> misses;
  std::vector<std::vector<serve::CanonicalKey>> keys(served.size());
  for (std::size_t p = 0; p < served.size(); ++p) {
    for (const Reply& reply : served[p].phase->replies) {
      const auto request = static_cast<std::size_t>(reply.request);
      keys[p].push_back(
          serve::canonicalize((*served[p].stream)[request].structure));
      if (!reply.ok || reply.hit) continue;
      Miss miss{reply.energy, {}};
      miss.canonical_forces.resize(reply.forces.size());
      for (std::size_t a = 0; a < reply.forces.size(); ++a) {
        miss.canonical_forces[static_cast<std::size_t>(keys[p].back().perm[a])] =
            reply.forces[a];
      }
      misses[keys[p].back().bytes].push_back(std::move(miss));
    }
  }
  for (std::size_t p = 0; p < served.size(); ++p) {
    const std::vector<Reply>& replies = served[p].phase->replies;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const Reply& reply = replies[i];
      if (!reply.ok || !reply.hit) continue;
      const serve::CanonicalKey& key = keys[p][i];
      const auto it = misses.find(key.bytes);
      bool matched = false;
      for (const Miss& miss : it == misses.end() ? std::vector<Miss>{} : it->second) {
        bool same =
            std::memcmp(&miss.energy, &reply.energy, sizeof(double)) == 0;
        if (same && !reply.forces.empty()) {
          same = miss.canonical_forces.size() == reply.forces.size();
          for (std::size_t a = 0; same && a < reply.forces.size(); ++a) {
            same = miss.canonical_forces[static_cast<std::size_t>(key.perm[a])] ==
                   reply.forces[a];
          }
        }
        matched = matched || same;
      }
      result.check(matched, "cache hit does not equal the miss that filled it");
    }
  }
}

std::vector<ServeRequest> slice(const std::vector<ServeRequest>& all,
                                std::size_t begin, std::size_t count) {
  return {all.begin() + static_cast<std::ptrdiff_t>(begin),
          all.begin() + static_cast<std::ptrdiff_t>(begin + count)};
}

}  // namespace

Result run_serve_open(const Options& options, SpanRecorder* spans) {
  Result result;
  describe_machine(result, options);
  // Two worker threads share the pool (each caller is a lane), and one core
  // is left to the load generator: nproc busy threads in all.
  const int lanes = std::max(1, machine_threads() - kWorkers);
  ThreadPool::instance().resize(lanes);
  result.describe("server_workers", std::to_string(kWorkers));
  result.describe("pool_lanes", std::to_string(lanes));
  result.describe("ranks", "1");
  const double rates[] = {0.25 * kCapacity, 0.5 * kCapacity, 0.75 * kCapacity};
  for (int k = 0; k < 3; ++k) {
    result.describe("rate_r" + std::to_string(k + 1), json_number(rates[k]));
  }

  // Fixed work per --seconds: phase lengths are shares of it. Phase k runs
  // for a time inversely proportional to its rate, so every phase reads its
  // percentiles from about the same number of requests.
  const double phase_s[] = {0.72 * options.seconds * 6 / 11,
                            0.72 * options.seconds * 3 / 11,
                            0.72 * options.seconds * 2 / 11};
  const double ramp_s = 0.02 * options.seconds;  // per ladder rung
  const auto service_count = static_cast<std::size_t>(8 * options.seconds);
  const auto burst_count = static_cast<std::size_t>(12 * options.seconds);

  // Set-up: the request streams of the three phases and the two miss-only
  // probes, the model, its payload, and a started server.
  std::vector<std::vector<double>> schedules;
  for (std::size_t k = 0; k < 3; ++k) {
    schedules.push_back(poisson_schedule(
        rates[k], phase_s[k], options.seed * 1000003U + static_cast<std::uint64_t>(k)));
  }
  std::vector<std::vector<ServeRequest>> streams;
  std::vector<ServeRequest> fresh;
  std::string payload;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_seconds;
  std::vector<double> generate_seconds;
  serve::ServerOptions server_options;
  server_options.num_workers = kWorkers;
  for (int rep = 0; rep < 3; ++rep) {
    server.reset();
    const Clock::time_point begin = Clock::now();
    streams.clear();
    for (std::size_t k = 0; k < 3; ++k) {
      streams.push_back(serve_stream(options.seed * 7 + static_cast<std::uint64_t>(k),
                                     static_cast<std::int64_t>(schedules[k].size())));
    }
    fresh = serve_stream(options.seed * 7 + 5,
                         static_cast<std::int64_t>(service_count + burst_count),
                         /*fresh_only=*/true);
    generate_seconds.push_back(seconds_since(begin));
    payload = model_payload_bytes(EGNNModel(model_config()));
    server = std::make_unique<serve::Server>(model_config(), payload,
                                             server_options);
    setup_seconds.push_back(seconds_since(begin));
  }
  result.set("setup_s", median(setup_seconds), "s");
  std::uint64_t input_digest = digest(fresh);
  for (const auto& stream : streams) input_digest ^= digest(stream);
  result.describe("input_digest", std::to_string(input_digest));

  // Warm-up on structures generated apart from the phases' streams.
  const std::vector<ServeRequest> warm_stream =
      serve_stream(options.seed * 7 + 6, 20, true);
  const Phase warm = closed_loop(*server, warm_stream);

  const std::vector<ServeRequest> service_stream = slice(fresh, 0, service_count);
  const std::vector<ServeRequest> burst_stream =
      slice(fresh, service_count, burst_count);
  auto& registry = obs::MetricsRegistry::instance();
  const char* names[] = {"lat_r1", "lat_r2", "lat_r3"};

  // Before each phase and after the last, the run serves one slice of the
  // unloaded service probe and (untraced) one all-miss burst, so that both
  // sample the whole run rather than one stretch of it.
  const std::size_t slices = 4;
  std::vector<double> burst_rates;
  Phase bursts;
  Phase service;
  // The unloaded probe's memory peak is that of the largest single request,
  // which does not depend on how requests happened to batch.
  std::int64_t service_peak = 0;
  const auto interlude = [&](std::size_t slice_index) {
    MemoryTracker::instance().reset_peak();
    const std::size_t per = service_stream.size() / slices;
    const Phase part = closed_loop(
        *server, slice(service_stream, slice_index * per, per));
    for (Reply reply : part.replies) {
      reply.request += static_cast<std::int64_t>(slice_index * per);
      service.replies.push_back(std::move(reply));
    }
    service_peak = std::max(service_peak, MemoryTracker::instance().peak_total());
    if (spans != nullptr) return;
    const std::size_t size = burst_stream.size() / slices;
    double atoms = 0;
    std::vector<std::future<InferenceResult>> burst;
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = slice_index * size; i < (slice_index + 1) * size; ++i) {
      const ServeRequest& r = burst_stream[i];
      atoms += static_cast<double>(r.structure.num_atoms());
      burst.push_back(server->submit({r.structure, r.forces}));
    }
    for (std::size_t i = 0; i < burst.size(); ++i) {
      Reply reply;
      reply.request = static_cast<std::int64_t>(slice_index * size + i);
      take(reply, burst[i]);
      result.failed += reply.ok ? 0 : 1;
      bursts.replies.push_back(std::move(reply));
    }
    burst_rates.push_back(atoms / seconds_since(begin));
    result.attempted += static_cast<std::int64_t>(burst.size());
  };

  std::vector<Phase> phases;
  MemBreakdown peak;
  for (std::size_t k = 0; k < 3; ++k) {
    interlude(k);
    MemoryTracker::instance().reset_peak();
    phases.push_back(open_loop(*server, streams[k], schedules[k]));
    if (MemoryTracker::instance().peak().total() > peak.total()) {
      peak = MemoryTracker::instance().peak();
    }
  }
  interlude(3);

  std::vector<double> late;
  for (const Phase& phase : phases) {
    result.attempted += static_cast<std::int64_t>(phase.replies.size());
    result.failed += phase.failed();
    for (const Reply& reply : phase.replies) late.push_back(reply.timing.late());
  }
  const Tail late_tail = tail(late, 0.99);
  result.check(late_tail.value <= kMaxLate,
               "load generator ran late: p99 " + json_number(late_tail.value) + " s");

  // Output checks (untimed): hits against misses on every phase, and a
  // seeded sample of replies against a direct forward on the same weights.
  // Every reply of this server is recorded: identical structures can come
  // out of two streams, so a hit may follow a miss from another phase.
  std::vector<Served> served{{&warm_stream, &warm},
                             {&service_stream, &service},
                             {&burst_stream, &bursts}};
  for (std::size_t k = 0; k < phases.size(); ++k) {
    served.push_back({&streams[k], &phases[k]});
  }
  check_hits(result, served);
  EGNNModel reference(model_config());
  load_model_payload(reference, payload);
  const ReferencePotential teacher;
  // The loss is read from a fixed count per generator (the first ten fresh
  // structures of each source in the service probe), so that its mix does
  // not change with the seed; a seeded sample of phase replies adds
  // cache hits and repeats to the correctness check.
  Checked checked;
  std::vector<int> per_source(5, 0);
  for (std::size_t i = 0; i < service.replies.size(); ++i) {
    int& n = per_source[static_cast<std::size_t>(service_stream[i].source)];
    if (n >= 10) continue;
    ++n;
    check_reply(result, reference, teacher, service_stream[i], service.replies[i],
                checked);
  }
  // The median: a random-weight model has a few structures with huge errors.
  const double loss_final = median(checked.losses);
  Checked sampled;
  Rng pick(options.seed ^ 0x636865636BULL);
  for (int i = 0; i < 24; ++i) {
    const auto k = static_cast<std::size_t>(pick.uniform_index(3));
    if (phases[k].replies.empty()) continue;
    const auto r = pick.uniform_index(phases[k].replies.size());
    check_reply(result, reference, teacher, streams[k][r], phases[k].replies[r],
                sampled);
  }
  checked.count += sampled.count;
  checked.worst_relative = std::max(checked.worst_relative, sampled.worst_relative);
  result.describe("checked_replies", std::to_string(checked.count));
  result.describe("worst_relative_energy_error", json_number(checked.worst_relative));

  if (spans == nullptr) {
    std::vector<double> service_s;
    for (const Reply& reply : service.replies) service_s.push_back(reply.timing.latency());
    set_step_metrics(result, service_s);
    result.set("loss_final", loss_final, "loss", Kind::kValue);
    result.set("peak_mib", static_cast<double>(service_peak) / kMiB, "MiB",
               Kind::kValue);
    result.set("atoms_per_s", median(burst_rates), "1/s");
    return result;
  }

  // Traced run. The open-loop latencies come from the untraced phases above.
  for (std::size_t k = 0; k < 3; ++k) {
    const std::vector<double> lat = phases[k].latencies();
    const Tail t = tail(lat, 0.99);
    result.set(std::string(names[k]) + "_p50_s",
               median(phases[k].miss_latencies()), "s");
    result.set(std::string(names[k]) + "_p99_s", t.value, "s");
    result.describe(std::string(names[k]) + "_samples", std::to_string(t.samples));
    result.describe(std::string(names[k]) + "_p99_s.quantile", json_number(t.quantile));
  }

  // Rate ladder, walked upward as one open-loop ramp: rung k holds
  // ladder_rate(k) for ramp_s seconds, from a rung above r3 until a rung
  // fails; max_rate_rps is the rung below the first failure.
  constexpr int kFirstRung = 20;  // 133 req/s
  std::vector<double> schedule;
  std::vector<double> ramp_edges{0.0};
  for (int k = kFirstRung; k < kLadderRungs; ++k) {
    for (const double t :
         poisson_schedule(ladder_rate(k), ramp_s,
                          options.seed * 1000003U + 100 + static_cast<std::uint64_t>(k))) {
      schedule.push_back(ramp_edges.back() + t);
    }
    ramp_edges.push_back(ramp_edges.back() + ramp_s);
  }
  const Phase ramp = open_loop(
      *server,
      serve_stream(options.seed * 7 + 100, static_cast<std::int64_t>(schedule.size())),
      schedule,
      static_cast<std::size_t>(ladder_rate(kLadderRungs - 1) * kLatencyLimit));
  double max_rate = 0;
  for (std::size_t k = kFirstRung; k < kLadderRungs; ++k) {
    const std::size_t seg = k - kFirstRung;
    const auto scheduled = static_cast<std::size_t>(std::count_if(
        schedule.begin(), schedule.end(), [&](double t) {
          return t >= ramp_edges[seg] && t < ramp_edges[seg + 1];
        }));
    const double rate = ladder_rate(static_cast<int>(k));
    if (!sustainable(ramp, ramp_edges[seg], ramp_edges[seg + 1], rate, scheduled)) break;
    max_rate = rate;
  }
  if (max_rate == 0) {
    // Even the first ramp rung failed: fall back to the fixed rates.
    for (std::size_t k = 0; k < 3; ++k) {
      if (sustainable(phases[k], 0, phase_s[k], rates[k], phases[k].replies.size())) {
        max_rate = rates[k];
      }
    }
  }
  result.attempted += static_cast<std::int64_t>(ramp.replies.size());
  result.failed += ramp.failed();
  result.describe("ramp_requests", std::to_string(ramp.replies.size()));
  result.set("max_rate_rps", max_rate, "1/s");

  // Traced pass: the first third of each phase again, on a fresh server
  // with the profiler on and a span per request.
  server = std::make_unique<serve::Server>(model_config(), payload,
                                           server_options);
  registry.reset();
  obs::prof::reset();
  obs::prof::enable();
  std::vector<Phase> traced;
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<double> part = schedules[k];
    part.resize(part.size() / 3);
    traced.push_back(open_loop(*server, streams[k], part));
  }
  obs::prof::disable();
  const obs::prof::Report report = obs::prof::report(/*with_calibration=*/false);
  double completed = 0;
  double misses = 0;
  std::vector<double> submit_s;
  std::vector<double> hit_lat;
  std::vector<double> miss_lat;
  std::vector<double> force_miss_lat;
  std::int64_t backlog_max = 0;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    backlog_max = std::max(backlog_max, traced[k].backlog_max);
    for (const Reply& reply : traced[k].replies) {
      // Spans: the request from its scheduled send to its reply, with the
      // submit() call as its child.
      const int parent = spans->add("serve.request", reply.timing.scheduled,
                                    reply.timing.done, -1, reply.request);
      spans->add("serve.submit", reply.timing.sent, reply.returned, parent,
                 reply.request);
      submit_s.push_back(reply.returned - reply.timing.sent);
      if (!reply.ok) continue;
      completed += 1;
      if (reply.hit) {
        hit_lat.push_back(reply.timing.latency());
        continue;
      }
      misses += 1;
      miss_lat.push_back(reply.timing.latency());
      if (streams[k][static_cast<std::size_t>(reply.request)].forces) {
        force_miss_lat.push_back(reply.timing.latency());
      }
    }
  }
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  double batch_s = 0;
  double forward_s = 0;
  for (const obs::prof::TreeRow& row : report.tree) {
    if (row.name == "serve.batch") batch_s += row.inclusive_seconds;
    if (row.name == "serve.forward" || row.name == "serve.forward_backward") {
      forward_s += row.inclusive_seconds;
    }
  }
  set_tensor_metrics(result, report, completed, batch_s, 1);
  set_peak_breakdown(result, peak);
  result.set("nn.forward_s", forward_s / misses, "s");
  result.set("serve.submit_s", median(submit_s), "s");
  result.set("serve.hit_p50_s", median(hit_lat), "s");
  result.set("serve.miss_p50_s", median(miss_lat), "s");
  result.set("serve.miss_p99_s", tail(miss_lat, 0.99).value, "s");
  result.set("serve.force_miss_p50_s", median(force_miss_lat), "s");
  result.set("serve.cache_hit_share", static_cast<double>(hit_lat.size()) / completed, "ratio",
             Kind::kValue);
  result.set("serve.batch_graphs_mean",
             static_cast<double>(snapshot.counters.at("serve.batch.graphs")) /
                 static_cast<double>(snapshot.counters.at("serve.batches")),
             "count", Kind::kValue);
  result.set("serve.backlog_max", static_cast<double>(backlog_max), "count",
             Kind::kValue);
  result.set("serve.gen_late_p99_s", late_tail.value, "s");

  // Energy-only requests run without a tape: no autograd node may be alive
  // while a no-grad forward's outputs are held.
  std::vector<MolecularGraph> graphs;
  for (std::size_t i = 0; i < 8 && i < service_stream.size(); ++i) {
    graphs.push_back(MolecularGraph::from_structure(service_stream[i].structure,
                                                    model_config().cutoff));
  }
  const GraphBatch batch = GraphBatch::from_graphs(graphs);
  const std::int64_t nodes_before = autograd::live_node_count();
  double tape_nodes = 0;
  {
    const autograd::NoGradGuard guard;
    const Scope span(spans, "nn.forward", 0);
    const EGNNModel::Output out = reference.forward(batch);
    tape_nodes = static_cast<double>(autograd::live_node_count() - nodes_before);
  }
  result.check(tape_nodes == 0, "energy-only forward recorded tape nodes");
  result.set("tensor.tape_nodes_per_step", tape_nodes, "count", Kind::kExact);

  // graph.neighbor_s: the per-miss neighbour build on served structures.
  std::vector<const AtomicStructure*> served_structures;
  for (const ServeRequest& request : service_stream) {
    served_structures.push_back(&request.structure);
  }
  neighbor_probe(result, served_structures, spans);
  result.set("data.generate_s", median(generate_seconds), "s");
  set_self_times(result, *spans, completed);
  // Tracing overhead: traced minus untraced median miss latency at r1.
  result.set("trace.overhead_s",
             median(traced[0].miss_latencies()) -
                 median(phases[0].miss_latencies()),
             "s");
  return result;
}

}  // namespace perfbench

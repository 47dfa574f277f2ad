// End-to-end serving benchmark for Lumos5G.
//
// One process trains the examples/server_loop model (airport, 8 walk runs,
// T+M+C, 150 trees, 3 tiers), pushes seeded per-UE traces through
// serve::Server::submit -> poll, checks every answer against an external
// mirror of the server's sessions, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   serve_bench --workload steady_wide|churn_narrow|open_reload
//               --seed N --seconds S --trace 0|1
//               [--smoke] [--corrupt-one] [--spans-out PATH]
//
// All timing is wall clock (std::chrono::steady_clock). The pool is fixed at
// two threads and this thread is the pool's caller. README.md in this
// directory gives each workload's rationale and the layer -> metric table.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/lumos5g.h"
#include "data/column_store.h"
#include "data/features.h"
#include "serve/flat_model.h"
#include "serve/model_io.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "sim/areas.h"

#ifndef LUMOS_BENCH_COMPILER
#define LUMOS_BENCH_COMPILER "unknown"
#endif
#ifndef LUMOS_BENCH_BUILD_TYPE
#define LUMOS_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lumos;

constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kSetupRepeats = 3;
// Answers slower than this miss the service-level objective; it is also
// open_reload's per-request deadline.
constexpr std::int64_t kLatencyLimitNs = 50'000'000;
constexpr std::size_t kIdleReloads = 15;
// tier0_frac and online_mae_mbps are taken over this many timed requests
// (all of them when fewer), so they depend on the seed and not on how many
// requests a run's speed let through.
constexpr std::size_t kQualityRequests = 200'000;
// Timing metrics are taken per fixed slice of the timed phase and reported
// as the better quartile over slices. Interference from other tenants on a
// shared host only ever slows a slice, while a change to the program moves
// every slice. open_reload reloads once in the middle of every slice, so
// each slice holds one stall.
constexpr std::int64_t kSliceNs = 500'000'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads; README.md gives the reason for each.

struct Workload {
  const char* name;
  bool open_loop;
  std::size_t n_ues;
  double zipf_s;               ///< UE popularity skew; 0 = uniform
  std::size_t max_batch;       ///< closed loop: also the round size
  std::size_t max_sessions;
  std::size_t queue_capacity;
  bool server_defaults;        ///< default degrade/shed watermarks
  std::size_t num_shards;      ///< 0 = pool size
  double rate_per_s;           ///< open loop only
  std::int64_t reload_every_ns;  ///< open loop only; one reload per slice
};

constexpr Workload kWorkloads[] = {
    // One shard each: see README.md for why the closed workloads do not fan
    // out.
    {"steady_wide", false, 1024, 0.0, 256, 4096, 512, false, 1, 0.0, 0},
    {"churn_narrow", false, 4096, 0.6, 16, 256, 32, false, 1, 0.0, 0},
    {"open_reload", true, 1024, 0.0, 16, 4096, 1024, true, 0, 4'000.0,
     kSliceNs},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        ///< small model and short phases
  bool corrupt_one = false;  ///< flip one recorded answer (gate self-test)
  std::string spans_out;     ///< trace mode: where to write the spans
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "serve_bench: %s\nusage: serve_bench --workload "
               "steady_wide|churn_narrow|open_reload --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt-one] [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = find_workload(value());
        if (o.workload == nullptr) usage("unknown workload");
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--corrupt-one") {
        o.corrupt_one = true;
      } else if (a == "--spans-out") {
        o.spans_out = value();
      } else {
        usage("unknown argument");
      }
    } catch (const std::exception&) {
      usage("bad number");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("bad --seconds");
  return o;
}

// ---------------------------------------------------------------------------
// Small statistics helpers

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `fn` `reps` times and returns the median wall time in ns.
template <typename Fn>
double median_ns(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(std::move(t));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the parent span; 0 = root
  std::uint64_t id = 0;      ///< request index for request spans, else 0
};

class Tracer {
 public:
  /// Opens a span and returns its handle (index + 1).
  std::uint32_t open(const char* name, std::uint32_t parent = 0,
                     std::uint64_t id = 0) {
    spans_.push_back({name, now_ns(), 0, parent, id});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t h) { spans_[h - 1].end_ns = now_ns(); }
  void add(const Span& s) { spans_.push_back(s); }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time of `parent` split by child name: each child's summed wall
  /// time, plus "self" for the part of the parent no child covers. The
  /// benchmark is single-threaded around these calls, so children never
  /// overlap one another.
  std::map<std::string, double> self_times(std::uint32_t parent) const {
    std::map<std::string, double> out;
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent != parent) continue;
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      out[s.name] += d;
      covered += d;
    }
    const Span& p = spans_[parent - 1];
    out["self"] = static_cast<double>(p.end_ns - p.start_ns) - covered;
    return out;
  }

  /// CSV: index,name,start_ns,end_ns,parent,id (parent is a 1-based index).
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "index,name,start_ns,end_ns,parent,id\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i + 1) << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns
        << ',' << s.parent << ',' << s.id << '\n';
    }
    return static_cast<bool>(f);
  }

 private:
  std::vector<Span> spans_;
};

/// Opens a span when tracing, otherwise does nothing.
struct ScopedSpan {
  ScopedSpan(Tracer* t, const char* name, std::uint32_t parent = 0,
             std::uint64_t id = 0)
      : tracer(t), handle(t != nullptr ? t->open(name, parent, id) : 0) {}
  ~ScopedSpan() {
    if (tracer != nullptr) tracer->close(handle);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer* tracer;
  std::uint32_t handle;
};

// ---------------------------------------------------------------------------
// Set-up: sim campaign, train, compile, server build.

struct Model {
  core::Lumos5G trainer;
  serve::Predictor predictor;
};

struct SetupTimes {
  std::vector<double> total_s, sim_s, train_s, compile_s;
};

core::Lumos5GConfig model_config(bool smoke) {
  core::Lumos5GConfig cfg;
  cfg.feature_spec = data::FeatureSetSpec::parse("T+M+C");
  cfg.gbdt.n_estimators = smoke ? 20 : 150;
  return cfg;
}

serve::ServerConfig server_config(const Workload& w) {
  serve::ServerConfig cfg;
  cfg.queue_capacity = w.queue_capacity;
  cfg.max_batch = w.max_batch;
  cfg.max_sessions = w.max_sessions;
  cfg.num_shards = w.num_shards;
  if (w.server_defaults) {
    cfg.default_deadline_ms =
        static_cast<std::uint64_t>(kLatencyLimitNs / 1'000'000);
  } else {
    cfg.degrade_watermarks.clear();
    cfg.shed_watermark = 1.0;
  }
  return cfg;
}

Model set_up(const Options& o, SetupTimes& times, Tracer* tr) {
  std::optional<Model> model;
  const std::size_t repeats = o.smoke ? 1 : kSetupRepeats;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    model.reset();
    const ScopedSpan setup(tr, "setup");
    const std::int64_t t0 = now_ns();
    std::optional<data::Dataset> ds;
    {
      const ScopedSpan s(tr, "sim.collect", setup.handle);
      ds = sim::collect_area_dataset(sim::make_airport(), /*walk_runs=*/8,
                                     /*drive_runs=*/0, o.seed);
    }
    const std::int64_t t1 = now_ns();
    core::Lumos5G trainer(model_config(o.smoke));
    {
      const ScopedSpan s(tr, "core.train", setup.handle);
      if (const auto r = trainer.train(*ds); !r) {
        std::fprintf(stderr, "train failed: %s\n", r.error().describe().c_str());
        std::exit(1);
      }
    }
    const std::int64_t t2 = now_ns();
    std::optional<Expected<serve::Predictor>> compiled;
    {
      const ScopedSpan s(tr, "predictor.compile", setup.handle);
      compiled.emplace(serve::Predictor::compile(trainer));
    }
    if (!*compiled) {
      std::fprintf(stderr, "compile failed: %s\n",
                   compiled->error().describe().c_str());
      std::exit(1);
    }
    const std::int64_t t3 = now_ns();
    {
      // Building the server allocates every serving arena; it is part of
      // what a deployment pays before the first answer.
      const ScopedSpan s(tr, "server.build", setup.handle);
      SteadyClock clock;
      const serve::Server server(**compiled, server_config(*o.workload), clock);
    }
    const std::int64_t t4 = now_ns();
    times.sim_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    times.train_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    times.compile_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
    times.total_s.push_back(static_cast<double>(t4 - t0) * 1e-9);
    model.emplace(Model{std::move(trainer), std::move(**compiled)});
  }
  return std::move(*model);
}

// ---------------------------------------------------------------------------
// Traffic: each UE replays one run of a held-out campaign from a seeded
// offset; the seed also picks which UE sends each request and when.

struct Traffic {
  data::Dataset ds;
  std::vector<std::vector<std::size_t>> runs;
  std::vector<std::uint32_t> ue_run;
  std::vector<std::uint32_t> ue_pos;  ///< next position in the UE's run
  std::vector<double> zipf_cdf;       ///< empty = uniform
  Rng pick;
  Rng arrivals;

  Traffic(const Workload& w, std::uint64_t seed)
      : ds(sim::collect_area_dataset(sim::make_airport(), 8, 0,
                                     seed ^ 0x7261666669630000ULL)),
        runs(ds.runs()),
        pick(seed * 0x9E3779B97F4A7C15ULL + 1),
        arrivals(seed * 0x9E3779B97F4A7C15ULL + 2) {
    // Runs are dealt to UEs in a seeded order, round robin, so every run
    // carries an equal share of UEs (and of the hot ones under Zipf).
    Rng assign(seed * 0x9E3779B97F4A7C15ULL + 3);
    std::vector<std::uint32_t> order(runs.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      order[r] = static_cast<std::uint32_t>(r);
    }
    for (std::size_t r = order.size(); r > 1; --r) {
      std::swap(order[r - 1], order[assign.uniform_int(r)]);
    }
    ue_run.resize(w.n_ues);
    ue_pos.resize(w.n_ues);
    for (std::size_t u = 0; u < w.n_ues; ++u) {
      ue_run[u] = order[u % order.size()];
      ue_pos[u] = static_cast<std::uint32_t>(
          assign.uniform_int(runs[ue_run[u]].size()));
    }
    if (w.zipf_s > 0.0) {
      zipf_cdf.resize(w.n_ues);
      double acc = 0.0;
      for (std::size_t r = 0; r < w.n_ues; ++r) {
        acc += std::pow(static_cast<double>(r + 1), -w.zipf_s);
        zipf_cdf[r] = acc;
      }
      for (double& c : zipf_cdf) c /= acc;
    }
  }

  std::uint32_t next_ue() {
    if (zipf_cdf.empty()) {
      return static_cast<std::uint32_t>(pick.uniform_int(ue_run.size()));
    }
    const double u = pick.uniform();
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - zipf_cdf.begin(),
                                 static_cast<std::ptrdiff_t>(zipf_cdf.size()) - 1));
  }

  /// Dataset index of the UE's next sample, then advances it; `label` gets
  /// the sample after it, which scores this request's answer.
  std::uint32_t advance(std::uint32_t ue, std::uint32_t& label) {
    const auto& run = runs[ue_run[ue]];
    const std::uint32_t p = ue_pos[ue];
    const std::uint32_t q = static_cast<std::uint32_t>((p + 1) % run.size());
    ue_pos[ue] = q;
    label = static_cast<std::uint32_t>(run[q]);
    return static_cast<std::uint32_t>(run[p]);
  }

  /// Exponential gap of a Poisson process at `rate` per second, in ns.
  std::int64_t gap_ns(double rate) {
    return static_cast<std::int64_t>(-std::log1p(-arrivals.uniform()) / rate *
                                     1e9);
  }
};

// ---------------------------------------------------------------------------
// One phase: warm-up plus a timed run against a fresh server, with every
// request and answer recorded for the correctness gate.

struct Sent {
  std::uint32_t ue = 0;
  std::uint32_t sample = 0;  ///< dataset index carried by the request
  std::uint32_t label = 0;   ///< dataset index of the UE's next sample
  std::uint64_t ticket = 0;  ///< 0 = shed
  std::int64_t due_ns = 0;
};

struct Answer {
  std::uint64_t ticket = 0;
  double mbps = 0.0;
  std::int64_t answered_ns = 0;
  ErrorCode code = ErrorCode::kInvalidArgument;
  bool ok = false;
  std::int8_t tier = 0;
  std::int8_t cls = 0;
  std::uint8_t min_tier = 0;
};

struct Poll {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t first = 0;  ///< first answer index
  std::uint32_t n = 0;
};

struct Phase {
  std::vector<Sent> sent;
  std::vector<Answer> answers;
  std::vector<std::uint32_t> sent_of_ticket;  ///< ticket - 1 -> sent index
  std::vector<Poll> polls;
  std::size_t timed_sent = 0;     ///< sent[timed_sent..] is the timed phase
  std::size_t timed_answers = 0;  ///< answers[timed_answers..] likewise
  std::int64_t t0 = 0, t1 = 0;
  std::int64_t duration_ns = 0;
  std::vector<double> reload_ms;
  std::vector<double> submit_ns;  ///< traced phases only
  std::vector<double> late_ns;    ///< traced phases only
  double rss_mb = 0.0;            ///< peak RSS after set-up and warm-up
  serve::ServerStats stats;
  std::size_t n_shards = 0;
  std::uint32_t phase_span = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Model& m, Traffic& traffic,
         const std::string& artifact)
      : w_(w), m_(m), traffic_(traffic), artifact_(artifact) {}

  Phase run(double seconds, std::size_t warmup, Tracer* tr) {
    Phase ph;
    SteadyClock clock;
    serve::Server server(m_.predictor, server_config(w_), clock);
    ph.n_shards = server.n_shards();
    out_.assign(w_.max_batch, serve::Response{});
    const auto cap = static_cast<std::size_t>(seconds * 300'000.0) + warmup;
    ph.sent.reserve(cap);
    ph.answers.reserve(cap);
    ph.sent_of_ticket.reserve(cap);

    // Warm-up: closed rounds until every session holds a full window.
    while (ph.sent.size() < warmup) {
      const std::int64_t due = now_ns();
      for (std::size_t j = 0; j < w_.max_batch; ++j) submit(server, ph, due, nullptr, 0);
      drain(server, ph, nullptr, 0);
    }
    ph.rss_mb = peak_rss_mb();
    ph.timed_sent = ph.sent.size();
    ph.timed_answers = ph.answers.size();

    if (tr != nullptr) tr->reserve(cap * 2);
    {
      const ScopedSpan phase(tr, "phase.timed");
      ph.phase_span = phase.handle;
      ph.t0 = now_ns();
      ph.duration_ns = static_cast<std::int64_t>(seconds * 1e9);
      if (w_.open_loop) {
        run_open(server, ph, tr, phase.handle);
      } else {
        while (now_ns() - ph.t0 < ph.duration_ns) {
          const std::int64_t due = now_ns();
          for (std::size_t j = 0; j < w_.max_batch; ++j) {
            submit(server, ph, due, tr, phase.handle);
          }
          drain(server, ph, tr, phase.handle);
        }
      }
      ph.t1 = now_ns();
    }
    if (!w_.open_loop) {
      // Closed workloads swap the model on the idle server after the timed
      // phase, so reload_stall_ms is measured on every workload.
      const ScopedSpan idle(tr, "phase.idle_reload");
      for (std::size_t i = 0; i < kIdleReloads; ++i) {
        reload(server, ph, tr, idle.handle);
      }
    }
    ph.stats = server.stats();
    return ph;
  }

 private:
  void submit(serve::Server& server, Phase& ph, std::int64_t due, Tracer* tr,
              std::uint32_t parent) {
    Sent s;
    s.ue = traffic_.next_ue();
    s.sample = traffic_.advance(s.ue, s.label);
    s.due_ns = due;
    req_.ue_id = s.ue;
    req_.sample = traffic_.ds[s.sample];
    std::int64_t t0 = 0;
    if (tr != nullptr) t0 = now_ns();
    const auto ticket = server.submit(req_);
    if (tr != nullptr) {
      const std::int64_t t1 = now_ns();
      tr->add({"submit", t0, t1, parent, ph.sent.size()});
      ph.submit_ns.push_back(static_cast<double>(t1 - t0));
      ph.late_ns.push_back(static_cast<double>(t0 - due));
    }
    if (ticket) {
      s.ticket = *ticket;
      ph.sent_of_ticket.push_back(static_cast<std::uint32_t>(ph.sent.size()));
    }
    ph.sent.push_back(s);
  }

  void poll_once(serve::Server& server, Phase& ph, Tracer* tr,
                 std::uint32_t parent) {
    const std::int64_t start = tr != nullptr ? now_ns() : 0;
    const std::size_t n = server.poll(out_);
    const std::int64_t end = now_ns();
    const auto poll_index = static_cast<std::uint32_t>(ph.polls.size());
    if (tr != nullptr) {
      tr->add({"poll", start, end, parent, poll_index});
      ph.polls.push_back(
          {start, end, static_cast<std::uint32_t>(ph.answers.size()),
           static_cast<std::uint32_t>(n)});
    }
    for (std::size_t i = 0; i < n; ++i) {
      const serve::Response& r = out_[i];
      Answer a;
      a.ticket = r.ticket;
      a.answered_ns = end;
      a.min_tier = static_cast<std::uint8_t>(r.min_tier);
      a.ok = r.result.has_value();
      if (a.ok) {
        a.mbps = r.result->throughput_mbps;
        a.tier = static_cast<std::int8_t>(r.result->tier);
        a.cls = static_cast<std::int8_t>(r.result->throughput_class);
      } else {
        a.code = r.result.error().code;
      }
      ph.answers.push_back(a);
    }
  }

  void drain(serve::Server& server, Phase& ph, Tracer* tr,
             std::uint32_t parent) {
    while (server.queue_depth() > 0) poll_once(server, ph, tr, parent);
  }

  void reload(serve::Server& server, Phase& ph, Tracer* tr,
              std::uint32_t parent) {
    const ScopedSpan s(tr, "reload_bytes", parent);
    const std::int64_t t0 = now_ns();
    if (const auto r = server.reload_bytes(artifact_); !r) {
      std::fprintf(stderr, "reload failed: %s\n", r.error().describe().c_str());
      std::exit(1);
    }
    ph.reload_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }

  // Open loop: Poisson arrivals at a fixed rate and a reload on a fixed
  // cadence. Each pass submits everything that is due, then polls once.
  void run_open(serve::Server& server, Phase& ph, Tracer* tr,
                std::uint32_t parent) {
    std::int64_t next_due = ph.t0 + traffic_.gap_ns(w_.rate_per_s);
    std::int64_t next_reload = ph.t0 + w_.reload_every_ns / 2;
    const std::int64_t stop = ph.t0 + ph.duration_ns;
    for (;;) {
      std::int64_t now = now_ns();
      if (now >= next_reload && next_reload < stop) {
        reload(server, ph, tr, parent);
        next_reload += w_.reload_every_ns;
        now = now_ns();
      }
      const bool open = now < stop;
      while (open && next_due <= std::min(now, stop)) {
        submit(server, ph, next_due, tr, parent);
        next_due += traffic_.gap_ns(w_.rate_per_s);
      }
      if (server.queue_depth() > 0) {
        poll_once(server, ph, tr, parent);
      } else if (!open) {
        break;
      }
    }
  }

  const Workload& w_;
  const Model& m_;
  Traffic& traffic_;
  const std::string& artifact_;
  serve::Request req_;
  std::vector<serve::Response> out_;
};

// ---------------------------------------------------------------------------
// Correctness gate. The mirror replays the documented session semantics
// from outside: answers arrive in ticket order; an expired request touches
// nothing; any other request touches its UE's session (creating it, and
// evicting the globally least-recently-used one when max_sessions are
// resident), appends its sample to a window of session_capacity records,
// and is answered by Predictor::predict(window, min_tier). TTL is off in
// every workload, so the mirror is exact.

struct Item {
  std::uint32_t answer = 0;
  std::uint32_t ue = 0;
  std::uint32_t begin = 0;  ///< window = history[ue][begin, end)
  std::uint32_t end = 0;
};

struct Check {
  std::vector<Item> items;  ///< one per non-expired answer, in order
  std::vector<std::vector<std::uint32_t>> history;  ///< observed samples per UE
  std::size_t mismatches = 0;
  std::size_t facade_checked = 0;
  std::size_t evictions = 0;        ///< whole phase, for the stats cross-check
  std::size_t timed_evictions = 0;  ///< timed part only
  std::size_t timed_hits = 0;       ///< timed answers whose session existed
  std::size_t timed_items = 0;
  std::vector<std::string> problems;
};

void window_of(const Check& c, const Item& it, const data::Dataset& ds,
               std::vector<data::SampleRecord>& out) {
  out.clear();
  const auto& h = c.history[it.ue];
  for (std::uint32_t k = it.begin; k < it.end; ++k) out.push_back(ds[h[k]]);
}

bool same_answer(const Answer& a, const Expected<core::Prediction>& e) {
  if (a.ok != e.has_value()) return false;
  if (!a.ok) return a.code == e.error().code;
  return std::memcmp(&a.mbps, &e->throughput_mbps, sizeof(double)) == 0 &&
         a.tier == e->tier && a.cls == e->throughput_class;
}

Check verify(const Phase& ph, const Model& m, const Traffic& traffic,
             const Workload& w, std::size_t session_capacity) {
  Check c;
  c.history.resize(w.n_ues);
  struct Resident {
    std::uint64_t seq = 0;
    std::uint32_t begin = 0;
  };
  std::map<std::uint32_t, Resident> resident;
  std::map<std::uint64_t, std::uint32_t> lru;  // seq -> ue
  std::uint64_t seq = 0;
  std::size_t expired = 0, served = 0, failed = 0;
  c.items.reserve(ph.answers.size());
  for (std::size_t i = 0; i < ph.answers.size(); ++i) {
    const Answer& a = ph.answers[i];
    if (a.ticket != i + 1) {
      c.problems.push_back("answer " + std::to_string(i) + " has ticket " +
                           std::to_string(a.ticket) + " (not FIFO)");
      return c;
    }
    const Sent& s = ph.sent[ph.sent_of_ticket[i]];
    if (!a.ok && a.code == ErrorCode::kDeadlineExceeded) {
      ++expired;
      continue;
    }
    a.ok ? ++served : ++failed;
    const bool timed = i >= ph.timed_answers;
    c.timed_items += timed ? 1 : 0;
    auto it = resident.find(s.ue);
    if (it == resident.end()) {
      if (resident.size() >= w.max_sessions) {
        const auto victim = lru.begin();
        resident.erase(victim->second);
        lru.erase(victim);
        ++c.evictions;
        c.timed_evictions += timed ? 1 : 0;
      }
      it = resident
               .emplace(s.ue, Resident{0, static_cast<std::uint32_t>(
                                              c.history[s.ue].size())})
               .first;
    } else {
      c.timed_hits += timed ? 1 : 0;
      lru.erase(it->second.seq);
    }
    it->second.seq = ++seq;
    lru.emplace(seq, s.ue);
    auto& h = c.history[s.ue];
    h.push_back(s.sample);
    const auto end = static_cast<std::uint32_t>(h.size());
    const std::uint32_t begin = std::max<std::uint32_t>(
        it->second.begin,
        end > session_capacity ? end - static_cast<std::uint32_t>(session_capacity)
                               : 0);
    c.items.push_back({static_cast<std::uint32_t>(i), s.ue, begin, end});
  }

  // Every answer bit for bit against the compiled predictor; every 61st
  // undegraded one also against the training-side facade.
  constexpr std::size_t kFacadeStride = 61;
  struct Tally {
    std::size_t bad = 0, facade = 0;
  };
  const Tally t = parallel_reduce(
      0, c.items.size(), 4096, Tally{},
      [&](std::size_t b, std::size_t e) {
        Tally part;
        std::vector<data::SampleRecord> win;
        for (std::size_t k = b; k < e; ++k) {
          const Item& it = c.items[k];
          const Answer& a = ph.answers[it.answer];
          window_of(c, it, traffic.ds, win);
          const auto expect = m.predictor.predict(win, a.min_tier);
          if (!same_answer(a, expect)) ++part.bad;
          if (a.min_tier == 0 && k % kFacadeStride == 0) {
            ++part.facade;
            if (!same_answer(a, m.trainer.predict(win))) ++part.bad;
          }
        }
        return part;
      },
      [](Tally x, const Tally& y) {
        x.bad += y.bad;
        x.facade += y.facade;
        return x;
      });
  c.mismatches = t.bad;
  c.facade_checked = t.facade;

  // Accounting: every attempted request is answered once or shed.
  std::size_t shed = 0;
  for (const Sent& s : ph.sent) shed += s.ticket == 0 ? 1 : 0;
  const auto& st = ph.stats;
  if (served + failed + shed + expired != ph.sent.size()) {
    c.problems.push_back("served + failed + shed + expired != attempted");
  }
  if (ph.answers.size() != ph.sent_of_ticket.size()) {
    c.problems.push_back("admitted requests left unanswered");
  }
  if (st.served != served || st.failed != failed || st.shed != shed ||
      st.deadline_expired != expired || st.submitted != ph.sent_of_ticket.size()) {
    c.problems.push_back("server stats disagree with the recorded answers");
  }
  if (st.evicted_lru != c.evictions || st.evicted_ttl != 0) {
    c.problems.push_back("server evictions disagree with the mirror");
  }
  return c;
}

// ---------------------------------------------------------------------------
// Metrics over the timed part of a phase.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double frac(std::size_t num, std::size_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

struct Summary {
  std::size_t attempted = 0, served = 0, failed = 0, shed = 0, expired = 0;
  std::size_t slo_miss = 0, latency_samples = 0, slices = 0;
  double tier0_frac = 0.0;  ///< over the first kQualityRequests
  double preds_per_s = 0.0;  ///< upper quartile over slices
  double lat_p50_us = 0.0;   ///< lower quartile over slices of the slice's p50
  double lat_p99_us = 0.0;   ///< lower quartile over slices of the slice's p99
  double mae = 0.0;
  std::vector<std::size_t> by_tier;  ///< last slot = harmonic tail
};

Summary summarize(const Phase& ph, const Traffic& traffic, std::size_t n_tiers) {
  Summary s;
  s.by_tier.assign(n_tiers + 1, 0);
  s.attempted = ph.sent.size() - ph.timed_sent;
  s.slices = static_cast<std::size_t>(
      std::max<std::int64_t>(1, ph.duration_ns / kSliceNs));
  // Answers after the last full slice (the final round or the drain) count
  // toward the last slice.
  const auto slice_of = [&](std::int64_t t) {
    return std::min<std::size_t>(
        s.slices - 1,
        static_cast<std::size_t>(std::max<std::int64_t>(0, t - ph.t0) / kSliceNs));
  };
  std::vector<std::vector<double>> lat(s.slices);
  std::vector<std::size_t> served(s.slices, 0);
  std::vector<std::int64_t> first_due(s.slices, INT64_MAX), last_answer(s.slices, 0);
  double abs_err = 0.0;
  std::size_t scored = 0, tier0 = 0;
  for (std::size_t i = ph.timed_sent; i < ph.sent.size(); ++i) {
    s.shed += ph.sent[i].ticket == 0 ? 1 : 0;
  }
  const std::size_t quality_end = ph.timed_sent + kQualityRequests;
  for (std::size_t i = ph.timed_answers; i < ph.answers.size(); ++i) {
    const Answer& a = ph.answers[i];
    const Sent& q = ph.sent[ph.sent_of_ticket[i]];
    const auto ns = a.answered_ns - q.due_ns;
    const std::size_t slice = slice_of(a.answered_ns);
    lat[slice].push_back(static_cast<double>(ns) * 1e-3);
    first_due[slice] = std::min(first_due[slice], q.due_ns);
    last_answer[slice] = std::max(last_answer[slice], a.answered_ns);
    ++s.latency_samples;
    if (!a.ok) {
      a.code == ErrorCode::kDeadlineExceeded ? ++s.expired : ++s.failed;
      ++s.slo_miss;
      continue;
    }
    ++s.served;
    ++served[slice];
    if (ns > kLatencyLimitNs) ++s.slo_miss;
    ++s.by_tier[std::min<std::size_t>(static_cast<std::size_t>(a.tier), n_tiers)];
    if (ph.sent_of_ticket[i] >= quality_end) continue;
    tier0 += a.tier == 0 ? 1 : 0;
    const double label = traffic.ds[q.label].throughput_mbps;
    if (std::isfinite(label)) {
      abs_err += std::abs(a.mbps - label);
      ++scored;
    }
  }
  s.slo_miss += s.shed;
  s.mae = scored > 0 ? abs_err / static_cast<double>(scored) : 0.0;
  s.tier0_frac = frac(tier0, std::min(s.attempted, kQualityRequests));
  // A slice's rate is its served answers over the wall time from the
  // earliest due time among them to the last answer, as measured.
  std::vector<double> rate, p50, p99;
  for (std::size_t k = 0; k < s.slices; ++k) {
    if (lat[k].empty()) continue;
    rate.push_back(static_cast<double>(served[k]) /
                   (static_cast<double>(last_answer[k] - first_due[k]) * 1e-9));
    p50.push_back(percentile(lat[k], 0.50));
    p99.push_back(percentile(lat[k], 0.99));
  }
  s.preds_per_s = percentile(rate, 0.75);
  s.lat_p50_us = percentile(p50, 0.25);
  s.lat_p99_us = percentile(p99, 0.25);
  return s;
}

// ---------------------------------------------------------------------------
// Isolated probes of the kernel layers, on the workload's own windows.

struct Windows {
  std::vector<data::SampleRecord> arena;
  std::vector<std::span<const data::SampleRecord>> spans;
};

/// Windows of the answers in `items[first, first + n)`.
Windows collect_windows(const Check& c, const data::Dataset& ds,
                        std::size_t first, std::size_t n) {
  Windows w;
  std::vector<std::size_t> offsets;
  std::vector<data::SampleRecord> win;
  for (std::size_t k = first; k < first + n && k < c.items.size(); ++k) {
    window_of(c, c.items[k], ds, win);
    offsets.push_back(w.arena.size());
    w.arena.insert(w.arena.end(), win.begin(), win.end());
  }
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const std::size_t end =
        i + 1 < offsets.size() ? offsets[i + 1] : w.arena.size();
    w.spans.emplace_back(w.arena.data() + offsets[i], end - offsets[i]);
  }
  return w;
}

/// Index of the first item that belongs to the timed part of the phase.
std::size_t first_timed_item(const Check& c, const Phase& ph) {
  const auto it = std::lower_bound(
      c.items.begin(), c.items.end(), ph.timed_answers,
      [](const Item& x, std::size_t a) { return x.answer < a; });
  return static_cast<std::size_t>(it - c.items.begin());
}

void probe_kernels(const Model& m, const Windows& win,
                   std::vector<Metric>& out) {
  const auto& cfg = m.trainer.config().features;
  const auto& specs = m.predictor.tier_specs();

  // Feature extraction, per tier spec, over the same windows.
  for (std::size_t t = 0; t < specs.size(); ++t) {
    std::vector<double> row(data::feature_width(specs[t], cfg));
    std::size_t usable = 0;
    const double ns = median_ns(5, [&] {
      usable = 0;
      for (const auto& w : win.spans) {
        usable += data::feature_row_into(w, specs[t], cfg, row) ? 1 : 0;
      }
    });
    out.push_back({"data.feature_row_ns.t" + std::to_string(t),
                   ns / static_cast<double>(std::max<std::size_t>(1, win.spans.size())),
                   "ns"});
  }

  // Tier-0 kernels on blocks of tier-0 rows from these windows; the rows
  // are tiled when fewer than 256 windows can produce tier 0.
  const std::size_t width = data::feature_width(specs[0], cfg);
  std::vector<double> row(width);
  std::vector<std::vector<double>> rows;
  for (const auto& w : win.spans) {
    if (rows.size() == 256) break;
    if (data::feature_row_into(w, specs[0], cfg, row)) rows.push_back(row);
  }
  const auto reg = serve::FlatForest::flatten(m.trainer.tier_regressor(0));
  const auto cls = serve::FlatClassifier::flatten(m.trainer.tier_classifier(0));
  out.push_back({"flat.nodes", static_cast<double>(m.predictor.n_nodes()), "count"});
  if (rows.empty()) {
    std::fprintf(stderr, "no window of this workload yields a tier-0 row\n");
    std::exit(1);
  }
  data::ColumnStore store(256, width);
  for (std::size_t r = 0; r < 256; ++r) store.put_row(r, rows[r % rows.size()]);
  std::vector<double> reg_out(256);
  std::vector<int> cls_out(256);
  for (const std::size_t b : {std::size_t{16}, std::size_t{256}}) {
    const auto block = store.block(0, b);
    const std::size_t reps = b == 16 ? 2000 : 200;
    const double r_ns = median_ns(reps, [&] { reg.predict_columnar(block, reg_out); });
    const double c_ns = median_ns(reps, [&] { cls.predict_columnar(block, cls_out); });
    const auto bn = static_cast<double>(b);
    out.push_back({"flat.reg_ns_per_row.b" + std::to_string(b), r_ns / bn, "ns"});
    out.push_back({"flat.cls_ns_per_row.b" + std::to_string(b), c_ns / bn, "ns"});
  }
}

// ---------------------------------------------------------------------------
// Output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ", ";
    j += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

/// Verifies one phase, reports its counts, and returns the mismatch count
/// (wrong answers plus accounting violations).
std::size_t gate(const char* label, const Check& c) {
  std::printf("# gate %s: %zu answers checked against Predictor::predict, "
              "%zu against Lumos5G::predict, %zu mismatches\n",
              label, c.items.size(), c.facade_checked, c.mismatches);
  for (const auto& p : c.problems) std::printf("# gate %s: %s\n", label, p.c_str());
  return c.mismatches + c.problems.size();
}

void report_counts(const char* label, const Summary& s) {
  std::printf("# %s: attempted %zu, succeeded %zu, failed %zu, shed %zu, "
              "expired %zu, latency samples %zu in %zu slices of %.1f s\n",
              label, s.attempted, s.served, s.failed, s.shed, s.expired,
              s.latency_samples, s.slices, static_cast<double>(kSliceNs) * 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "serve_bench: built without NDEBUG (assertions on); refusing "
               "to measure a debug build\n");
  return 2;
#endif
  const Options o = parse_args(argc, argv);
  const Workload& w = *o.workload;
  ThreadPool::global().set_threads(kPoolThreads);

  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;
  SetupTimes times;
  const Model model = set_up(o, times, tr);

  // Serialisation: the artifact open_reload swaps in, timed for model_io.
  std::string artifact;
  const double save_ns = median_ns(o.smoke ? 1 : 5, [&] {
    const ScopedSpan s(tr, "model_io.save_bytes");
    artifact = serve::save_bytes(model.trainer);
  });
  const double load_ns = median_ns(o.smoke ? 1 : 5, [&] {
    const ScopedSpan s(tr, "model_io.load_lumos5g");
    if (const auto m = serve::load_lumos5g(artifact); !m) {
      std::fprintf(stderr, "load failed: %s\n", m.error().describe().c_str());
      std::exit(1);
    }
  });

  const std::size_t warmup =
      (o.smoke ? 4 : 32) * std::min(w.n_ues, w.max_sessions);
  const std::size_t n_tiers = model.predictor.tier_specs().size();
  const std::size_t session_capacity = serve::ServerConfig{}.session_capacity;

  // The untraced phase gives every end-to-end number.
  Traffic traffic(w, o.seed);
  Runner runner(w, model, traffic, artifact);
  const std::int64_t phase_start = now_ns();
  Phase plain = runner.run(o.seconds, warmup, nullptr);
  const std::int64_t verify_start = now_ns();
  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
              "\"pool_threads\": %zu, \"shards\": %zu, \"build_type\": \"%s\", "
              "\"ndebug\": true, \"isa\": \"%s\", \"compiler\": \"%s\", "
              "\"artifact_bytes\": %zu, \"flat_nodes\": %zu, \"trace\": %d}\n",
              w.name, static_cast<unsigned long long>(o.seed),
              sysconf(_SC_NPROCESSORS_ONLN), ThreadPool::global().threads(),
              plain.n_shards, LUMOS_BENCH_BUILD_TYPE,
              simd::isa_name(), LUMOS_BENCH_COMPILER, artifact.size(),
              model.predictor.n_nodes(), o.trace ? 1 : 0);

  std::size_t wrong = 0;
  if (o.corrupt_one) {
    for (std::size_t i = plain.timed_answers; i < plain.answers.size(); ++i) {
      if (plain.answers[i].ok) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &plain.answers[i].mbps, sizeof bits);
        bits ^= 1;
        std::memcpy(&plain.answers[i].mbps, &bits, sizeof bits);
        break;
      }
    }
  }
  const Check plain_check = verify(plain, model, traffic, w, session_capacity);
  wrong += gate("untraced", plain_check);
  std::printf("# wall: set-up %.2f s, phase %.2f s, gate %.2f s\n",
              std::accumulate(times.total_s.begin(), times.total_s.end(), 0.0),
              static_cast<double>(verify_start - phase_start) * 1e-9,
              static_cast<double>(now_ns() - verify_start) * 1e-9);
  const Summary s = summarize(plain, traffic, n_tiers);
  report_counts("untraced", s);

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"setup_s", median(times.total_s), "s"},
        {"preds_per_s", s.preds_per_s, "1/s"},
        {"lat_p50_us", s.lat_p50_us, "us"},
        {"lat_p99_us", s.lat_p99_us, "us"},
        {"reload_stall_ms", percentile(plain.reload_ms, 0.25), "ms"},
        {"tier0_frac", s.tier0_frac, "frac"},
        {"online_mae_mbps", s.mae, "Mbps"},
        {"peak_rss_mb", plain.rss_mb, "MB"},
    };
    print_result(wrong == 0, s.attempted, s.failed + wrong, metrics);
    return wrong == 0 ? 0 : 1;
  }

  // Traced phase: same workload on a fresh server and traffic stream, with
  // spans around every call into the server.
  Traffic traced_traffic(w, o.seed);
  Runner traced_runner(w, model, traced_traffic, artifact);
  const Phase ph = traced_runner.run(o.seconds, warmup, tr);
  const Check c = verify(ph, model, traced_traffic, w, session_capacity);
  wrong += gate("traced", c);
  const Summary ts = summarize(ph, traced_traffic, n_tiers);
  report_counts("traced", ts);

  // Predictor and poll overhead on the windows of the traced polls (only
  // the timed phase records polls).
  const std::size_t first = first_timed_item(c, ph);
  std::vector<double> batch_us, overhead_us;
  std::size_t preds = 0;
  double batch_total_ns = 0.0;
  {
    const ScopedSpan probe(tr, "probe.predictor");
    serve::PredictScratch scratch;
    scratch.reserve(w.max_batch, model.predictor.max_width());
    std::vector<Expected<core::Prediction>> res(
        w.max_batch, Expected<core::Prediction>(Error{ErrorCode::kWindowUnusable, ""}));
    std::size_t k = first;
    const std::size_t max_polls = o.smoke ? 50 : 2000;
    for (std::size_t p = 0; p < ph.polls.size() && k < c.items.size() &&
                            batch_us.size() < max_polls;
         ++p) {
      const Poll& pl = ph.polls[p];
      std::size_t n = 0;
      while (k + n < c.items.size() && c.items[k + n].answer < pl.first + pl.n) ++n;
      if (n == 0) continue;
      const Windows win = collect_windows(c, traced_traffic.ds, k, n);
      const std::size_t min_tier = ph.answers[c.items[k].answer].min_tier;
      const auto span_view = std::span(win.spans);
      const auto res_view = std::span(res).first(n);
      model.predictor.predict_spans_columnar(span_view, res_view, scratch, min_tier);
      const std::int64_t t0 = now_ns();
      model.predictor.predict_spans_columnar(span_view, res_view, scratch, min_tier);
      const auto ns = static_cast<double>(now_ns() - t0);
      batch_us.push_back(ns * 1e-3);
      overhead_us.push_back(static_cast<double>(pl.end_ns - pl.start_ns) * 1e-3 -
                            ns * 1e-3);
      batch_total_ns += ns;
      preds += n;
      k += n;
    }
  }

  const Windows probe_windows = collect_windows(
      c, traced_traffic.ds, first, std::min<std::size_t>(4096, c.items.size() - first));
  {
    const ScopedSpan probe(tr, "probe.kernels");
    probe_kernels(model, probe_windows, metrics);
  }
  double fork_join_ns = 0.0;
  {
    const ScopedSpan probe(tr, "probe.fork_join");
    // One chunk per pool thread: the fan-out a poll makes when its
    // workload has as many shards as the pool has threads.
    const std::size_t chunks = ThreadPool::global().threads();
    fork_join_ns = median_ns(o.smoke ? 200 : 5000, [&] {
      parallel_for(0, chunks, 1, [](std::size_t, std::size_t) {});
    });
  }

  std::vector<double> poll_us, queue_wait_us;
  double batch_rows = 0.0;
  std::size_t batches = 0;
  for (const Poll& pl : ph.polls) {
    if (pl.n == 0) continue;
    poll_us.push_back(static_cast<double>(pl.end_ns - pl.start_ns) * 1e-3);
    batch_rows += pl.n;
    ++batches;
    for (std::uint32_t i = pl.first; i < pl.first + pl.n; ++i) {
      // submit_ns and late_ns cover the timed requests only.
      const std::size_t j = ph.sent_of_ticket[i] - ph.timed_sent;
      const double submitted = static_cast<double>(ph.sent[ph.sent_of_ticket[i]].due_ns) +
                               ph.late_ns[j] + ph.submit_ns[j];
      queue_wait_us.push_back((static_cast<double>(pl.start_ns) - submitted) * 1e-3);
    }
  }
  const auto self = tracer.self_times(ph.phase_span);
  const double phase_ns = static_cast<double>(ph.t1 - ph.t0);
  const auto self_frac = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / phase_ns;
  };
  const auto tier_frac = [&](std::size_t t) { return frac(ts.by_tier[t], ts.served); };

  const std::vector<Metric> layer = {
      {"predictor.batch_us.p50", median(batch_us), "us"},
      {"predictor.ns_per_pred", batch_total_ns / static_cast<double>(std::max<std::size_t>(1, preds)), "ns"},
      {"predictor.compile_ms", median(times.compile_s) * 1e3, "ms"},
      {"server.poll_us.p50", percentile(poll_us, 0.50), "us"},
      {"server.poll_us.p99", percentile(poll_us, 0.99), "us"},
      {"server.batch_size.mean", batch_rows / static_cast<double>(std::max<std::size_t>(1, batches)), "count"},
      {"server.poll_overhead_us.p50", median(overhead_us), "us"},
      {"server.evicted_lru", static_cast<double>(c.timed_evictions), "count"},
      {"server.evicted_ttl", static_cast<double>(ph.stats.evicted_ttl), "count"},
      {"server.session_hit_frac", frac(c.timed_hits, c.timed_items), "frac"},
      {"server.submit_ns.p50", percentile(ph.submit_ns, 0.50), "ns"},
      {"server.submit_ns.p99", percentile(ph.submit_ns, 0.99), "ns"},
      {"server.queue_wait_us.p50", percentile(queue_wait_us, 0.50), "us"},
      {"server.queue_wait_us.p99", percentile(queue_wait_us, 0.99), "us"},
      {"server.peak_depth", static_cast<double>(ph.stats.peak_depth), "count"},
      {"server.shed", static_cast<double>(ts.shed), "count"},
      {"server.deadline_expired", static_cast<double>(ts.expired), "count"},
      {"server.served_tier.0", tier_frac(0), "frac"},
      {"server.served_tier.1", tier_frac(1), "frac"},
      {"server.served_tier.2", tier_frac(2), "frac"},
      {"server.served_tier.harmonic", tier_frac(n_tiers), "frac"},
      {"server.useful_frac", frac(ts.served, ts.attempted), "frac"},
      {"slo_miss_frac", frac(ts.slo_miss, ts.attempted), "frac"},
      {"model_io.save_ms", save_ns * 1e-6, "ms"},
      {"model_io.load_ms", load_ns * 1e-6, "ms"},
      {"model_io.artifact_bytes", static_cast<double>(artifact.size()), "bytes"},
      {"server.reload_ms.p50", median(ph.reload_ms), "ms"},
      {"pool.threads", static_cast<double>(ThreadPool::global().threads()), "count"},
      {"pool.fork_join_us", fork_join_ns * 1e-3, "us"},
      {"core.train_s", median(times.train_s), "s"},
      {"sim.collect_s", median(times.sim_s), "s"},
      {"gen.late_p99_us", percentile(ph.late_ns, 0.99) * 1e-3, "us"},
      {"trace.overhead_frac", 1.0 - ts.preds_per_s / s.preds_per_s, "frac"},
      {"trace.self_frac.submit", self_frac("submit"), "frac"},
      {"trace.self_frac.poll", self_frac("poll"), "frac"},
      {"trace.self_frac.reload", self_frac("reload_bytes"), "frac"},
      {"trace.self_frac.loop", self_frac("self"), "frac"},
  };
  metrics.insert(metrics.begin(), layer.begin(), layer.end());

  // Request spans: from due time to the poll that answered, sharing the
  // request index with the request's submit span.
  for (std::size_t i = 0; i < ph.answers.size(); ++i) {
    const std::uint32_t q = ph.sent_of_ticket[i];
    tracer.add({"request", ph.sent[q].due_ns, ph.answers[i].answered_ns, 0, q});
  }
  if (!o.spans_out.empty() && !tracer.write(o.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_out.c_str());
    return 1;
  }
  print_result(wrong == 0, ts.attempted, ts.failed + wrong, metrics);
  return wrong == 0 ? 0 : 1;
}

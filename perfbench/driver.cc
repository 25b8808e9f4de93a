// Mining-job benchmark driver (README.md). For one named workload it builds
// the input graph from --seed, computes the serial oracle, then submits
// mining jobs through Cluster::Run in a closed loop (one client, one job in
// flight) for --seconds, checking every result against the oracle. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it also runs
// the per-layer probes and one traced job, and prints the per-layer metrics.
// The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/kclique.h"
#include "apps/tc.h"
#include "baselines/serial.h"
#include "core/cluster.h"
#include "core/task_store.h"
#include "graph/generators.h"
#include "graph/intersect.h"
#include "graph/orientation.h"
#include "partition/bdg_partitioner.h"
#include "storage/vertex_table.h"

namespace gminer {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One input shape × one mining app. The shapes stress different layers:
// see the workload table in README.md.
struct Workload {
  const char* name;
  const char* dataset;
  double scale;
  uint32_t clique_k;  // 3 = triangle counting (TriangleCountJob)
};

constexpr Workload kWorkloads[] = {
    {"tc-orkut", "orkut", 4.0, 3},
    {"tc-btc", "btc", 2.0, 3},
    {"kclique5-orkut", "orkut", 2.0, 5},
};

// Environment overrides that silently change which code paths run. Both
// sides of a comparison must run the configured paths, so refuse them.
constexpr const char* kPinnedEnv[] = {"GMINER_SIMD", "GMINER_PULL_BATCH", "GMINER_METRICS"};

constexpr int kSetups = 5;             // set-up repetitions; setup_s is their median
constexpr int kProbeRepeats = 5;       // per-layer probe repetitions (medians)
constexpr double kSerialShare = 0.25;  // oracle time per unit of job time in the loop

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  double scale = 0.0;        // > 0 overrides the workload's dataset scale
  int64_t oracle_skew = 0;   // self-test hook: a deliberately wrong oracle
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--scale <f>] [--oracle-skew <n>]\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) {
        Usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--oracle-skew") {
      args.oracle_skew = std::strtoll(value.c_str(), &end, 10);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (args.workload == nullptr || args.work_dir.empty()) {
    Usage("--workload and --work-dir are required");
  }
  return args;
}

// Cluster shape and link model under test: 4 workers × 1 compute thread (one
// compute thread per core of a 4-core host), the bench link model of 50 µs
// simulated latency at 1 Gbps, every other knob at its JobConfig default.
JobConfig BenchJobConfig() {
  JobConfig config;
  config.num_workers = 4;
  config.threads_per_worker = 1;
  config.net_latency_us = 50;
  config.net_bandwidth_gbps = 1.0;
  return config;
}

// What one checked job contributes to the metrics.
struct JobSample {
  double wall_ms = 0.0;
  double partition_ms = 0.0;
  double pipeline_ms = 0.0;
  double cpu_util = 0.0;
  int64_t peak_memory_bytes = 0;
  CountersSnapshot totals;
  std::vector<CountersSnapshot> per_worker;
  std::vector<StageLatency> stages;
  int64_t trace_events_dropped = 0;
  bool ok = false;  // status kOk, count equal to the oracle, every task completed
};

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args), config_(BenchJobConfig()) {
    run_dir_ = fs::path(args.work_dir) / ("run-" + std::to_string(::getpid()));
    fs::remove_all(run_dir_);
    fs::create_directories(run_dir_);
  }
  ~Bench() {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Main();

 private:
  std::unique_ptr<JobBase> MakeJob() const {
    if (args_.workload->clique_k == 3) {
      return std::make_unique<TriangleCountJob>();
    }
    return std::make_unique<KCliqueJob>(args_.workload->clique_k);
  }

  uint64_t SerialCount(const Graph& g) const {
    const uint32_t k = args_.workload->clique_k;
    return k == 3 ? SerialTriangleCount(g) : SerialKCliqueCount(g, k);
  }

  // Builds the graph, times the oracle and runs one untimed warm-up job.
  void SetUp();
  // Runs one job in its own spill directory and checks it against the oracle.
  JobSample RunJob(const RunOptions& options);
  void RunPerLayerProbes(const JobSample& traced);
  void Emit(const std::string& name, double value, const char* unit);

  const Args args_;
  const JobConfig config_;
  fs::path run_dir_;
  Graph graph_;
  uint64_t oracle_ = 0;
  std::vector<double> serial_ms_;
  std::vector<double> setup_s_;
  IntersectStats serial_intersects_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<JobSample> timed_;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics_;
};

void Bench::SetUp() {
  const auto t0 = Clock::now();
  const Workload& w = *args_.workload;
  graph_ = MakeDataset(w.dataset, args_.scale > 0.0 ? args_.scale : w.scale, args_.seed);
  const IntersectStats before = IntersectStatsThisThread();
  const uint64_t oracle = SerialCount(graph_) + static_cast<uint64_t>(args_.oracle_skew);
  const IntersectStats& after = IntersectStatsThisThread();
  serial_intersects_ = {after.scalar_calls - before.scalar_calls,
                        after.galloping_calls - before.galloping_calls,
                        after.avx2_calls - before.avx2_calls};
  if (!setup_s_.empty() && oracle != oracle_) {
    std::fprintf(stderr, "the same seed built a different input\n");
    checks_ok_ = false;
  }
  oracle_ = oracle;
  RunJob({});
  setup_s_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
}

JobSample Bench::RunJob(const RunOptions& options) {
  JobConfig config = config_;
  const fs::path spill = run_dir_ / ("job-" + std::to_string(attempted_));
  fs::create_directories(spill);
  config.spill_dir = spill.string();
  std::unique_ptr<JobBase> job = MakeJob();
  Cluster cluster(config);

  const auto t0 = Clock::now();
  const JobResult result = cluster.Run(graph_, *job, options);
  JobSample s;
  s.wall_ms = MsSince(t0);
  fs::remove_all(spill);

  s.partition_ms = result.partition_seconds * 1e3;
  s.pipeline_ms = result.elapsed_seconds * 1e3;
  s.cpu_util = result.avg_cpu_utilization;
  s.peak_memory_bytes = result.peak_memory_bytes;
  s.totals = result.totals;
  s.per_worker = result.per_worker;
  s.stages = result.stage_latencies;
  s.trace_events_dropped = result.trace_events_dropped;

  const uint64_t count = SumAggregator::DecodeFinal(result.final_aggregate);
  s.ok = result.status == JobStatus::kOk && count == oracle_ &&
         result.totals.tasks_completed == result.totals.tasks_created;
  ++attempted_;
  if (!s.ok) {
    ++failed_;
    std::fprintf(stderr, "job %ld failed: status=%s count=%lu oracle=%lu tasks=%ld/%ld\n",
                 static_cast<long>(attempted_), JobStatusName(result.status),
                 static_cast<unsigned long>(count), static_cast<unsigned long>(oracle_),
                 static_cast<long>(result.totals.tasks_completed),
                 static_cast<long>(result.totals.tasks_created));
  }
  return s;
}

// Ring capacity for a lossless traced job, sized from an untraced job's
// counters. A thread emits only for its own worker's tasks and traffic (the
// network delivery thread for all traffic), and no thread emits more than
// kEventsPerUnit events per task, cache lookup, pulled vertex or message.
size_t TraceRingCapacity(const JobSample& warm) {
  constexpr int64_t kEventsPerUnit = 4;
  int64_t bound = 2 * warm.totals.net_messages;
  for (const CountersSnapshot& c : warm.per_worker) {
    const int64_t units = c.tasks_created + c.tasks_stolen_in + c.cache_hits + c.cache_misses +
                          c.pull_requests + c.net_messages;
    bound = std::max(bound, kEventsPerUnit * units);
  }
  size_t capacity = size_t{1} << 15;
  while (capacity < static_cast<size_t>(bound)) {
    capacity <<= 1;
  }
  return capacity;
}

void Bench::Emit(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
    checks_ok_ = false;
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

template <typename F>
double MedianOf(const std::vector<JobSample>& jobs, F field) {
  std::vector<double> v;
  v.reserve(jobs.size());
  for (const JobSample& j : jobs) {
    v.push_back(static_cast<double>(field(j)));
  }
  return Median(std::move(v));
}

template <typename F>
double MedianMs(int repeats, F body) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    body();
    ms.push_back(MsSince(t0));
  }
  return Median(std::move(ms));
}

// Collects GenerateSeeds output with the remote-candidate sets the worker
// computes before a task enters its store (they key the LSH queue).
class VectorSeedSink : public SeedSink {
 public:
  VectorSeedSink(const std::vector<WorkerId>& owner, WorkerId me) : owner_(owner), me_(me) {}

  void Emit(std::unique_ptr<TaskBase> task) override {
    std::vector<VertexId> to_pull;
    for (const VertexId v : task->candidates()) {
      if (owner_[v] != me_) {
        to_pull.push_back(v);
      }
    }
    std::sort(to_pull.begin(), to_pull.end());
    to_pull.erase(std::unique(to_pull.begin(), to_pull.end()), to_pull.end());
    task->set_to_pull(std::move(to_pull));
    tasks.push_back(std::move(task));
  }

  std::vector<std::unique_ptr<TaskBase>> tasks;

 private:
  const std::vector<WorkerId>& owner_;
  WorkerId me_;
};

void Bench::RunPerLayerProbes(const JobSample& traced) {
  // partition: BDG with the job's parameters.
  BdgPartitioner bdg(config_.bdg_num_sources, config_.bdg_bfs_depth, config_.bdg_max_rounds,
                     config_.seed);
  std::vector<WorkerId> owner;
  const double bdg_ms =
      MedianMs(kProbeRepeats, [&] { owner = bdg.Partition(graph_, config_.num_workers); });
  const PartitionQuality quality = EvaluatePartition(graph_, owner, config_.num_workers);
  Emit("partition.bdg_ms", bdg_ms, "ms");
  Emit("partition.edge_cut", quality.edge_cut_fraction, "fraction");
  Emit("partition.imbalance", quality.imbalance, "fraction");

  // graph: oracle, degree reorder and the oracle's kernel dispatch mix.
  Emit("graph.serial_ms", Median(serial_ms_), "ms");
  Emit("graph.reorder_ms",
       MedianMs(kProbeRepeats, [&] { (void)ReorderByDegree(graph_); }), "ms");
  Emit("graph.intersect_calls.scalar", static_cast<double>(serial_intersects_.scalar_calls),
       "count");
  Emit("graph.intersect_calls.galloping",
       static_cast<double>(serial_intersects_.galloping_calls), "count");
  Emit("graph.intersect_calls.avx2", static_cast<double>(serial_intersects_.avx2_calls),
       "count");

  // cluster: the phases of Cluster::Run.
  Emit("cluster.partition_ms", MedianOf(timed_, [](const JobSample& j) { return j.partition_ms; }),
       "ms");
  Emit("cluster.pipeline_ms", MedianOf(timed_, [](const JobSample& j) { return j.pipeline_ms; }),
       "ms");
  Emit("cluster.deploy_teardown_ms",
       MedianOf(timed_,
                [](const JobSample& j) { return j.wall_ms - j.partition_ms - j.pipeline_ms; }),
       "ms");

  // worker: task throughput and compute-thread occupancy.
  Emit("worker.tasks_completed",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.tasks_completed; }), "count");
  Emit("worker.tasks_per_s",
       MedianOf(timed_,
                [](const JobSample& j) {
                  return static_cast<double>(j.totals.tasks_completed) / (j.pipeline_ms / 1e3);
                }),
       "1/s");
  Emit("worker.compute_busy_ms",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.compute_busy_ns / 1e6; }), "ms");
  Emit("worker.cpu_util_pct",
       MedianOf(timed_, [](const JobSample& j) { return j.cpu_util * 100.0; }), "%");
  Emit("worker.tasks_migrated",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.tasks_stolen_in; }), "count");

  // task_store: worker 0's seed tasks through one store, insert then drain.
  std::unique_ptr<JobBase> job = MakeJob();
  VertexTable table;
  table.LoadPartition(graph_, owner, 0);
  TaskStore::Options store_options;
  store_options.block_capacity = config_.task_block_capacity;
  store_options.memory_blocks = config_.task_store_memory_blocks;
  store_options.enable_lsh = config_.enable_lsh;
  store_options.lsh_num_hashes = config_.lsh_num_hashes;
  store_options.lsh_bands = config_.lsh_bands;
  store_options.lsh_seed = config_.seed;
  std::vector<double> ns_per_task;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    VectorSeedSink sink(owner, 0);
    job->GenerateSeeds(table, sink);
    const size_t n = sink.tasks.size();
    const fs::path dir = run_dir_ / ("task-store-" + std::to_string(rep));
    fs::create_directories(dir);
    store_options.spill_dir = dir.string();
    WorkerCounters counters;
    MemoryTracker memory;
    {
      TaskStore store(store_options, [&job] { return job->MakeTask(); }, &counters, &memory);
      const auto t0 = Clock::now();
      for (size_t i = 0; i < n; i += config_.task_buffer_batch) {
        const size_t end = std::min(n, i + config_.task_buffer_batch);
        store.InsertBatch({std::make_move_iterator(sink.tasks.begin() + i),
                           std::make_move_iterator(sink.tasks.begin() + end)});
      }
      size_t popped = 0;
      while (store.TryPop() != nullptr) {
        ++popped;
      }
      const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      if (popped != n || n == 0) {
        std::fprintf(stderr, "task store returned %zu of %zu tasks\n", popped, n);
        checks_ok_ = false;
      }
      ns_per_task.push_back(ns / static_cast<double>(std::max<size_t>(n, 1)));
    }
    fs::remove_all(dir);
  }
  Emit("task_store.ns_per_task", Median(ns_per_task), "ns");
  Emit("task_store.spill_write_mb",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.disk_bytes_written / 1e6; }),
       "MB");
  Emit("task_store.spill_read_mb",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.disk_bytes_read / 1e6; }), "MB");

  // rcv_cache
  Emit("rcv_cache.hit_rate",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.CacheHitRate(); }), "fraction");
  Emit("rcv_cache.misses",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.cache_misses; }), "count");

  // net: the pull path.
  Emit("net.pull_requests",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.pull_requests; }), "count");
  Emit("net.pull_batches",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.pull_batches_sent; }), "count");
  Emit("net.ids_per_batch",
       MedianOf(timed_,
                [](const JobSample& j) {
                  return j.totals.pull_batches_sent > 0
                             ? static_cast<double>(j.totals.pull_requests) /
                                   static_cast<double>(j.totals.pull_batches_sent)
                             : 0.0;
                }),
       "ids/batch");
  Emit("net.messages", MedianOf(timed_, [](const JobSample& j) { return j.totals.net_messages; }),
       "count");
  Emit("net.pull_retries",
       MedianOf(timed_, [](const JobSample& j) { return j.totals.pull_retries; }), "count");
  Emit("net.dedup_hits", MedianOf(timed_, [](const JobSample& j) { return j.totals.dedup_hits; }),
       "count");

  // stage.*: the traced job's per-stage latency summaries.
  // (pull_flush spans are recorded but BuildStageLatencies does not summarise
  // them, so they have no stage.* entry.)
  for (const char* stage : {"queue_wait", "pull_wait", "ready_wait", "compute", "pull_rtt",
                            "spill_write", "spill_read"}) {
    StageLatency found;
    for (const StageLatency& s : traced.stages) {
      if (s.stage == stage) {
        found = s;
      }
    }
    const std::string prefix = std::string("stage.") + stage;
    Emit(prefix + ".count", static_cast<double>(found.count), "count");
    Emit(prefix + ".p50_us", found.p50_ns / 1e3, "us");
    Emit(prefix + ".p99_us", found.p99_ns / 1e3, "us");
  }

  const double job_p50 = MedianOf(timed_, [](const JobSample& j) { return j.wall_ms; });
  Emit("trace.overhead_pct", (traced.wall_ms / job_p50 - 1.0) * 100.0, "%");
  Emit("trace.events_dropped", static_cast<double>(traced.trace_events_dropped), "count");
}

int Bench::Main() {
  for (int i = 0; i < kSetups; ++i) {
    SetUp();
  }
  // The closed loop. Oracle calls are interleaved with the jobs (taking about
  // kSerialShare of the loop) rather than timed up front, so that graph.serial_ms,
  // the cost_ratio base, sees the same host conditions as the jobs it divides.
  const auto start = Clock::now();
  double serial_total_ms = 0.0;
  double job_total_ms = 0.0;
  do {
    if (serial_ms_.size() < 3 || serial_total_ms < kSerialShare * job_total_ms) {
      const auto t0 = Clock::now();
      (void)SerialCount(graph_);
      serial_ms_.push_back(MsSince(t0));
      serial_total_ms += serial_ms_.back();
    }
    timed_.push_back(RunJob({}));
    job_total_ms += timed_.back().wall_ms;
  } while (MsSince(start) < args_.seconds * 1e3);

  const auto wall = [](const JobSample& j) { return j.wall_ms; };
  const double job_p50 = MedianOf(timed_, wall);

  // Highest percentile with at least ten jobs beyond it (none below 11 jobs).
  std::vector<double> walls;
  for (const JobSample& j : timed_) {
    walls.push_back(j.wall_ms);
  }
  std::sort(walls.begin(), walls.end());
  const size_t n = walls.size();
  const double tail_ms = n >= 11 ? walls[n - 11] : walls.back();
  const double tail_pctile = n >= 11 ? 100.0 * static_cast<double>(n - 10) / n : 100.0;

  if (!args_.trace) {
    Emit("job_p50_ms", job_p50, "ms");
    Emit("cost_ratio", job_p50 / Median(serial_ms_), "ratio");
    Emit("peak_mem_mb",
         MedianOf(timed_, [](const JobSample& j) { return j.peak_memory_bytes / 1e6; }), "MB");
    Emit("net_mb",
         MedianOf(timed_, [](const JobSample& j) { return j.totals.net_bytes_sent / 1e6; }),
         "MB");
    Emit("setup_s", Median(setup_s_), "s");
  } else {
    // The traced job, with rings sized so that nothing is dropped.
    RunOptions traced_options;
    traced_options.enable_tracing = true;
    traced_options.trace_ring_capacity = TraceRingCapacity(timed_.back());
    const JobSample traced = RunJob(traced_options);
    std::fprintf(stderr, "traced job: ring capacity %zu events/thread\n",
                 traced_options.trace_ring_capacity);
    if (traced.trace_events_dropped != 0) {
      std::fprintf(stderr, "traced job dropped %ld events at ring capacity %zu\n",
                   static_cast<long>(traced.trace_events_dropped),
                   traced_options.trace_ring_capacity);
      failed_ += traced.ok ? 1 : 0;
      checks_ok_ = false;
    }
    RunPerLayerProbes(traced);
    Emit("job_tail_ms", tail_ms, "ms");
    Emit("job_tail_pctile", tail_pctile, "%");
    Emit("job_count", static_cast<double>(n), "count");
    Emit("job_fail_frac", static_cast<double>(failed_) / static_cast<double>(attempted_),
         "fraction");
  }

  std::printf("# perfbench workload=%s seed=%lu build_type=%s intersect_mode=%s avx2=%d "
              "timed_jobs=%zu job_tail=p%.1f\n",
              args_.workload->name, static_cast<unsigned long>(args_.seed), PERFBENCH_BUILD_TYPE,
              IntersectKernelName(IntersectMode()), IntersectAvx2Available() ? 1 : 0, n,
              tail_pctile);
  for (const auto& [name, vu] : metrics_) {
    std::printf("# %-34s %16.6f %s\n", name.c_str(), vu.first, vu.second);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              failed_ == 0 && checks_ok_ ? "true" : "false", static_cast<long>(attempted_),
              static_cast<long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].first.c_str(), metrics_[i].second.first, metrics_[i].second.second);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace gminer

int main(int argc, char** argv) {
  for (const char* var : gminer::kPinnedEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench_driver: %s is set; unset it so the benchmark runs the "
                   "configured code paths\n",
                   var);
      return 2;
    }
  }
  const gminer::Args args = gminer::ParseArgs(argc, argv);
  gminer::Bench bench(args);
  return bench.Main();
}

// Campaign benchmark program: one process makes one campaign call, then
// regenerates that campaign's paper outputs from the published log, and
// prints one JSON object describing what it did. All timing happens here,
// around calls into the libraries' public functions; src/ is not
// instrumented.
//
//   campaign_bench --campaign=distributed|greedy --seed=<n> --scale=<f>
//                  --days=<d> [--honeypots=<n> --chaos=off|composed]
//                  [--trace=0|1]
//
// The harness (run.py) turns a workload name and a benchmark seed into
// these flags; this program knows nothing of workloads and has no default
// campaign. The distributed campaign needs --honeypots and --chaos.
//
// Untraced (--trace=0) it records only the spans the end-to-end metrics
// need: the campaign call and each report. Traced (--trace=1) it
// also records the per-day progress marks (children of the simulate span),
// the publish tail, each report stage, and two replays of the publish path
// on the finished log: splitting it back into per-honeypot logs and timing
// logbook::merge_logs, then anonymize::renumber_peers on that merge.
//
// Output checks run on every process and are reported by name under
// "checks"; the exact counts under "counts" are what the harness compares
// against the values recorded for the workload and seed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/co_interest.hpp"
#include "analysis/log_stats.hpp"
#include "analysis/subsets.hpp"
#include "analysis/thread_pool.hpp"
#include "anonymize/renumber.hpp"
#include "common/memstat.hpp"
#include "logbook/log_io.hpp"
#include "logbook/merge.hpp"
#include "scenario/scenario.hpp"

using namespace edhp;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kReportMinSeconds = 0.5;
constexpr std::size_t kReportMaxRepeats = 25;

// Subset-curve samples run on a pool of one thread, pinned rather than one
// per core (ThreadPool(0)), so the report does not depend on how many cores
// are free and never asks for more than nproc.
constexpr std::size_t kPoolThreads = 1;

struct Options {
  std::string campaign;
  std::uint64_t seed = 0;
  double scale = 0;
  double days = 0;
  std::size_t honeypots = 0;
  bool chaos = false;
  bool trace = false;
};

Options parse(int argc, char** argv) {
  Options o;
  std::vector<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      throw std::invalid_argument("bad argument: " + std::string(arg));
    }
    const std::string key(arg.substr(2, eq - 2));
    const std::string value(arg.substr(eq + 1));
    given.push_back(key);
    if (key == "campaign") {
      if (value != "distributed" && value != "greedy") {
        throw std::invalid_argument("unknown campaign: " + value);
      }
      o.campaign = value;
    } else if (key == "seed") {
      o.seed = std::stoull(value);
    } else if (key == "scale") {
      o.scale = std::stod(value);
    } else if (key == "days") {
      o.days = std::stod(value);
    } else if (key == "honeypots") {
      o.honeypots = std::stoull(value);
    } else if (key == "chaos") {
      if (value != "off" && value != "composed") {
        throw std::invalid_argument("unknown chaos case: " + value);
      }
      o.chaos = value == "composed";
    } else if (key == "trace") {
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown option: --" + key);
    }
  }
  std::vector<const char*> required = {"campaign", "seed", "scale", "days"};
  if (o.campaign == "distributed") {
    required.insert(required.end(), {"honeypots", "chaos"});
  }
  for (const char* key : required) {
    if (std::find(given.begin(), given.end(), key) == given.end()) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
  }
  return o;
}

/// Every fault, abuse, Byzantine, clock and budget axis at once: the
/// composed case of bench_ablation_audit's sweep.
void arm_composed_chaos(scenario::DistributedConfig& c) {
  c.chaos.enabled = true;
  c.chaos.host_mtbf = hours(18);
  c.chaos.uplink_mtbf = hours(16);
  c.chaos.server_mtbf = days(2);
  c.abuse.enabled = true;
  auto& b = c.chaos.byzantine;
  b.enabled = true;
  b.fabricate_mtbf = hours(12);
  b.stale_index_mtbf = hours(12);
  b.forge_list_mtba = hours(4);
  b.replay_hello_mtba = hours(4);
  c.chaos.clock_drift_mtbf = days(2);
  c.chaos.clock_step_mtbf = hours(12);
  c.chaos.clock_step_max = 60.0;
  c.chaos.disk_quota_bytes = 192 * 1024;
  c.chaos.mem_budget_records = 4096;
  c.chaos.manager_mtbf = days(1);
  c.chaos.disk_full_mtbf = hours(12);
  c.chaos.mem_pressure_mtbf = hours(12);
}

/// In-memory spans: name, parent, start, end (steady_clock ns). Ids are
/// indices; -1 is "no parent".
class Spans {
 public:
  explicit Spans(bool detailed) : detailed_(detailed) {}

  int add(std::string name, int parent, std::int64_t start, std::int64_t end) {
    spans_.push_back({std::move(name), parent, start, end});
    return static_cast<int>(spans_.size() - 1);
  }

  /// A span whose children are recorded before it ends; see close().
  int open(std::string name, int parent) {
    return add(std::move(name), parent, now_ns(), 0);
  }
  std::int64_t close(int id) {
    return spans_[static_cast<std::size_t>(id)].end = now_ns();
  }

  /// Run `fn`, inside a span when the run is traced.
  template <class Fn>
  auto time(const char* name, int parent, Fn&& fn) {
    const std::int64_t start = now_ns();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      if (detailed_) add(name, parent, start, now_ns());
    } else {
      auto out = fn();
      if (detailed_) add(name, parent, start, now_ns());
      return out;
    }
  }

  void print(std::ostream& out) const {
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << '}';
    }
    out << ']';
  }

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  bool detailed_;
  std::vector<Span> spans_;
};

/// Receives the campaign's public progress stream and timestamps each
/// completed line (one per simulated day).
class LineMarks : public std::streambuf {
 public:
  std::vector<std::int64_t> marks;

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::to_int_type('\n')) marks.push_back(now_ns());
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      overflow(traits_type::to_int_type(s[i]));
    }
    return n;
  }
};

/// FNV-1a-style mix over every published record; the same fields and order
/// as the golden-fingerprint helper in tests/test_scenario.cpp.
std::uint64_t fingerprint(const logbook::LogFile& log) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& rec : log.records) {
    std::uint64_t t_bits = 0;
    static_assert(sizeof(rec.timestamp) == 8);
    std::memcpy(&t_bits, &rec.timestamp, 8);
    mix(t_bits);
    mix(rec.peer);
    mix(rec.user);
    mix(static_cast<std::uint64_t>(rec.honeypot));
    mix(static_cast<std::uint64_t>(rec.type));
  }
  return h;
}

/// The published log split back into one log per honeypot, each with its
/// own client-name table, in published (per-honeypot append) order.
std::vector<logbook::LogFile> split_by_honeypot(const logbook::LogFile& log) {
  std::size_t n = 0;
  for (const auto& r : log.records) {
    n = std::max<std::size_t>(n, std::size_t{r.honeypot} + 1);
  }
  std::vector<logbook::LogFile> logs(n);
  std::vector<std::vector<int>> remap(n, std::vector<int>(log.names.size(), -1));
  for (std::size_t h = 0; h < n; ++h) {
    logs[h].header = log.header;
    logs[h].header.honeypot = static_cast<std::uint16_t>(h);
  }
  for (auto r : log.records) {
    auto& dest = logs[r.honeypot];
    int& local = remap[r.honeypot][r.name_ref];
    if (local < 0) local = dest.intern(log.names[r.name_ref]);
    r.name_ref = static_cast<std::uint16_t>(local);
    dest.records.push_back(r);
  }
  return logs;
}

/// Same records in the same order, client names compared by string.
bool same_records(const logbook::LogFile& a, const logbook::LogFile& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    auto x = a.records[i];
    auto y = b.records[i];
    if (a.names[x.name_ref] != b.names[y.name_ref]) return false;
    x.name_ref = y.name_ref = 0;
    if (!(x == y)) return false;
  }
  return true;
}

/// Named pass/fail output checks; a name added twice must pass both times.
struct Checks {
  std::vector<std::pair<std::string, bool>> items;
  void add(const std::string& name, bool ok) {
    for (auto& [n, passed] : items) {
      if (n == name) {
        passed = passed && ok;
        return;
      }
    }
    items.emplace_back(name, ok);
  }
};

/// The analysis calls behind the campaign's paper figures, split into the
/// three report spans. Results are folded into `checks` where they have a
/// property the published log must satisfy.
void regenerate_figures(const Options& o, const scenario::ScenarioResult& r,
                        const logbook::LogFile& log, analysis::ThreadPool& pool,
                        Spans& spans, int parent, Checks& checks) {
  using logbook::QueryType;
  const auto days = static_cast<std::size_t>(o.days);
  const bool distributed = o.campaign == "distributed";
  std::vector<FileId> subset_files;

  spans.time("analysis.by_day", parent, [&] {
    // Fig 2 (distributed) / Fig 3 (greedy).
    const auto all = analysis::distinct_peers_by_day(log, std::nullopt, days);
    checks.add("distinct_peers", all.total == r.distinct_peers);
    if (!distributed) return;
    const auto rc = scenario::strategy_filter(r, true);
    const auto nc = scenario::strategy_filter(r, false);
    // Fig 4.
    (void)analysis::messages_by_hour(log, QueryType::hello, days * 24);
    // Figs 5/6.
    for (const auto type : {QueryType::hello, QueryType::start_upload}) {
      (void)analysis::distinct_peers_by_day(log, type, days, rc);
      (void)analysis::distinct_peers_by_day(log, type, days, nc);
    }
    // Fig 7.
    (void)analysis::cumulative_messages_by_day(log, QueryType::request_part,
                                               days, rc);
    (void)analysis::cumulative_messages_by_day(log, QueryType::request_part,
                                               days, nc);
    // Figs 8/9.
    const auto top = analysis::most_active_peer(log);
    checks.add("most_active_peer", top.has_value());
    if (!top) return;
    for (const auto type : {QueryType::start_upload, QueryType::request_part}) {
      (void)analysis::peer_messages_by_day(log, *top, type, days, rc);
      (void)analysis::peer_messages_by_day(log, *top, type, days, nc);
    }
  });

  spans.time("analysis.co_interest", parent, [&] {
    const auto summary = analysis::co_interest_summary(log);
    checks.add("co_interest", summary.attributed_peers <= r.distinct_peers);
    const auto popularity = analysis::file_popularity(log);
    if (distributed) {
      subset_files = r.advertised_ids;
    } else {
      // The Fig 12 "popular files" set.
      for (std::size_t i = 0; i < std::min<std::size_t>(100, popularity.size());
           ++i) {
        subset_files.push_back(popularity[i].file);
      }
    }
    (void)analysis::top_file_overlaps(log, subset_files, 20, &pool);
  });

  spans.time("analysis.subsets", parent, [&] {
    if (distributed) {
      // Fig 10.
      const auto sets = analysis::peer_sets_by_honeypot(log, r.honeypots);
      const auto curve =
          analysis::subset_union_curve(sets, 100, Rng(777), &pool);
      checks.add("subset_curve", !curve.avg.empty() &&
                                     curve.max.back() <= r.distinct_peers);
      return;
    }
    // Fig 11: 100 random advertised files; Fig 12: the 100 most popular.
    Rng pick(4242);
    std::vector<FileId> random_files;
    const std::size_t n =
        std::min<std::size_t>(100, r.advertised_ids.size());
    for (auto idx : pick.sample_indices(r.advertised_ids.size(), n)) {
      random_files.push_back(r.advertised_ids[idx]);
    }
    for (const auto* files : {&random_files, &subset_files}) {
      const auto sets = analysis::peer_sets_by_file(log, *files);
      const auto curve =
          analysis::subset_union_curve(sets, 100, Rng(777), &pool);
      checks.add("subset_curve", curve.size() == files->size() &&
                                     (curve.max.empty() ||
                                      curve.max.back() <= r.distinct_peers));
    }
  });
}

void print_counts(std::ostream& out, const scenario::ScenarioResult& r) {
  const auto& e = r.engine;
  const auto& n = r.net_totals;
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"records", r.merged.records.size()},
      {"sim.events", e.events_executed},
      {"sim.scheduled", e.slot_acquisitions},
      {"sim.slot_allocations", e.slot_allocations},
      {"sim.cancelled", e.events_cancelled},
      {"sim.peak_heap", e.peak_heap},
      {"net.messages", n.messages_sent},
      {"net.bytes", n.bytes_serialized},
      {"net.connects", n.connects_initiated},
      {"net.refusals", n.refusals},
      {"net.datagrams_dropped", n.datagrams_dropped},
      {"net.malformed", n.malformed_packets},
      {"net.peak_live_nodes", r.net_peak_live_nodes},
      {"peer.arrivals", r.population_arrivals},
      {"peer.peak_active", r.population_peak_active},
      {"peer.slab_slots", r.population_slab_slots},
      {"honeypot.records_born", r.audit.records_born},
      {"honeypot.relaunches", r.recovery.relaunches},
      {"honeypot.retries", r.recovery.honeypot_retries},
      {"logbook.merged_names", r.merged.names.size()},
      {"logbook.chunks_accepted", r.recovery.chunks_accepted},
      {"logbook.journal_entries", r.recovery.journal_entries},
      {"anonymize.distinct_peers", r.distinct_peers},
      {"audit.born", r.audit.records_born},
      {"audit.accounted", r.audit.accounted()},
  };
  out << '{';
  for (const auto& [name, value] : counts) {
    out << '"' << name << "\":" << value << ',';
  }
  out << "\"audit.unaccounted\":" << r.audit.unaccounted() << '}';
}

/// One campaign, its report and (traced) the publish replays; prints the
/// JSON result and returns the exit code.
int run(const Options& o) {
  Spans spans(o.trace);
  Checks checks;

  // --- Set-up: configs (the inputs) and the analysis pool. ----------------
  scenario::DistributedConfig dcfg;
  scenario::GreedyConfig gcfg;
  if (o.campaign == "distributed") {
    dcfg.seed = o.seed;
    dcfg.scale = o.scale;
    dcfg.days = o.days;
    dcfg.honeypots = o.honeypots;
    dcfg.audit = true;
    if (o.chaos) arm_composed_chaos(dcfg);
  } else {
    gcfg.seed = o.seed;
    gcfg.scale = o.scale;
    gcfg.days = o.days;
    gcfg.audit = true;
  }
  analysis::ThreadPool pool(kPoolThreads);

  // --- The campaign call: config to published log. ------------------------
  LineMarks marks;
  std::ostream progress(&marks);
  std::ostream* const progress_out = o.trace ? &progress : nullptr;
  const std::int64_t campaign_start = now_ns();
  const scenario::ScenarioResult result =
      o.campaign == "distributed"
          ? scenario::run_distributed(dcfg, progress_out)
          : scenario::run_greedy(gcfg, progress_out);
  const std::int64_t campaign_end = now_ns();
  const int campaign =
      spans.add("scenario.campaign", -1, campaign_start, campaign_end);
  if (o.trace && !marks.marks.empty()) {
    const int simulate = spans.add("scenario.simulate", campaign,
                                   campaign_start, marks.marks.back());
    std::int64_t day_start = campaign_start;
    for (const auto mark : marks.marks) {
      spans.add("sim.day", simulate, day_start, mark);
      day_start = mark;
    }
    spans.add("scenario.publish", campaign, marks.marks.back(), campaign_end);
  }
  if (o.trace) {
    checks.add("progress_marks",
               marks.marks.size() == static_cast<std::size_t>(o.days));
  }
  const auto& published = result.merged;
  checks.add("audit_balanced", result.audit.enabled && result.audit.balanced());
  checks.add("ledger_merged",
             result.audit.records_merged == published.records.size());

  // --- Report: the published log through the binary format, then the
  // analyses behind the campaign's figures. Untraced, the report is
  // regenerated until kReportMinSeconds have passed and report_s is the
  // median; a chaos log's report takes tens of milliseconds, too short for
  // one timing to be steady. Traced, it runs once, so the layer shares
  // describe one campaign and one report.
  std::vector<double> report_times;
  double report_total = 0;
  do {
    const int report = spans.open("report", -1);
    const std::int64_t report_start = now_ns();
    std::stringstream wire;
    spans.time("logbook.write", report,
               [&] { logbook::write_binary(wire, published); });
    const auto reread = spans.time(
        "logbook.read", report, [&] { return logbook::read_binary(wire); });
    regenerate_figures(o, result, reread, pool, spans, report, checks);
    report_times.push_back(
        static_cast<double>(spans.close(report) - report_start) * 1e-9);
    report_total += report_times.back();
    checks.add("round_trip", reread == published);
  } while (!o.trace && report_total < kReportMinSeconds &&
           report_times.size() < kReportMaxRepeats);
  std::sort(report_times.begin(), report_times.end());
  const std::size_t mid = report_times.size() / 2;
  const double report_s =
      report_times.size() % 2 == 1
          ? report_times[mid]
          : (report_times[mid - 1] + report_times[mid]) / 2;

  // --- Traced only: replay merge and stage-2 renumbering on the result. ---
  if (o.trace) {
    const auto parts = split_by_honeypot(published);
    auto merged = spans.time("logbook.merge", -1,
                             [&] { return logbook::merge_logs(parts); });
    checks.add("remerge", same_records(merged, published));
    merged.header.peer_kind = logbook::PeerIdKind::stage1_hash;
    const auto distinct = spans.time("anonymize.renumber", -1, [&] {
      return anonymize::renumber_peers(merged);
    });
    checks.add("renumber", distinct == result.distinct_peers);
  }

  const std::uint64_t peak_rss = peak_rss_bytes();

  // --- One JSON object on stdout. -----------------------------------------
  std::ostringstream out;
  out.precision(9);
  out << "{\"campaign_start_ns\":" << campaign_start << ",\"campaign_s\":"
      << static_cast<double>(campaign_end - campaign_start) * 1e-9
      << ",\"report_s\":" << report_s
      << ",\"report_repeats\":" << report_times.size()
      << ",\"peak_rss_bytes\":" << peak_rss << ",\"threads\":" << pool.size();
  char fp[24];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(fingerprint(published)));
  out << ",\"fingerprint\":\"" << fp << "\",\"counts\":";
  print_counts(out, result);
  out << ",\"checks\":{";
  for (std::size_t i = 0; i < checks.items.size(); ++i) {
    out << (i ? "," : "") << '"' << checks.items[i].first
        << "\":" << (checks.items[i].second ? "true" : "false");
  }
  out << "},\"spans\":";
  spans.print(out);
  out << "}\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const audit::ImbalanceError& e) {
    // The audited campaign refuses to publish an unbalanced ledger.
    std::cerr << "check failed: audit_balanced: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
}

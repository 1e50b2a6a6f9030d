#include "scenario/campaign.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/memstat.hpp"
#include "scenario/calibration.hpp"

namespace edhp::scenario {
namespace {

/// Project the chaos link knobs onto the network's link model. All-default
/// knobs yield the default model (no extra RNG draws), so link-clean runs
/// are bit-identical to a build without the projection.
net::LinkModel link_model(const fault::ChaosConfig& chaos) {
  net::LinkModel m;
  m.ge_p_enter_bad = chaos.link_burst_enter;
  m.ge_p_exit_bad = chaos.link_burst_exit;
  m.ge_loss_bad = chaos.link_burst_loss;
  m.datagram_dup = chaos.link_dup;
  m.datagram_reorder = chaos.link_reorder;
  m.reorder_delay = chaos.link_reorder_delay;
  return m;
}

const CampaignConfig& validated(const CampaignConfig& config) {
  // A zero-length campaign would otherwise fail deep inside the arrival
  // process (an exponential with a non-positive mean).
  if (!std::isfinite(config.days) || config.days <= 0) {
    throw std::invalid_argument(
        "campaign config: days must be finite and > 0, got " +
        std::to_string(config.days));
  }
  return config;
}

/// The defense policy a run actually applies: an explicit request wins;
/// otherwise abuse campaigns get the tuned policy unless the ablation
/// baseline (`auto_defense == false`) asked to fight bare-handed.
net::DefenseConfig effective_defense(const CampaignConfig& config) {
  if (config.defense.enabled) return config.defense;
  if (config.abuse.enabled && config.auto_defense) return abuse_defense_config();
  return config.defense;
}

honeypot::ManagerConfig manager_config(const fault::ChaosConfig& chaos,
                                       const net::DefenseConfig& defense) {
  honeypot::ManagerConfig mc = chaos_manager_config(chaos);
  mc.defense = defense;
  return mc;
}

}  // namespace

CampaignConfig::CampaignConfig(double default_scale, std::uint64_t default_seed,
                               double default_days)
    : scale(default_scale),
      seed(default_seed),
      days(default_days),
      behavior(behavior_2008()) {}

World::World(std::uint64_t seed, const peer::BehaviorParams& behavior,
             double scale, const net::LinkModel& link)
    : simulation(seed),
      network(simulation, link),
      catalog(catalog_2008(), simulation.rng().split(0xCA7A)),
      // The penalty models the *fraction* of the community a published
      // detection reaches, so the product (reports x penalty) must be
      // scale-invariant: fewer simulated peers, louder each report.
      blacklist(behavior.gossip_penalty / std::max(scale, 1e-6)),
      params(behavior) {}

peer::PeerContext World::context(net::NodeId server_node) {
  peer::PeerContext ctx;
  ctx.net = &network;
  ctx.server_node = server_node;
  ctx.server_port = 4661;
  ctx.blacklist = &blacklist;
  ctx.catalog = &catalog;
  ctx.params = &params;
  ctx.diurnal = &diurnal;
  ctx.source_weights = &source_weights;
  ctx.source_cache = &source_cache;
  return ctx;
}

honeypot::ManagerConfig chaos_manager_config(const fault::ChaosConfig& chaos) {
  honeypot::ManagerConfig mc;
  if (chaos.byzantine.enabled && chaos.byzantine.defend) {
    // Quarantine policy rides with the Byzantine model, independent of the
    // crash/outage switch: a lying server is a threat even in an otherwise
    // healthy run. Byzantine-only campaigns still get a journal so probe
    // verdicts and quarantine decisions leave an auditable trail (appends
    // consume no RNG draws and schedule no events).
    mc.quarantine_threshold = chaos.byzantine.quarantine_threshold;
    mc.quarantine_cooloff = chaos.byzantine.quarantine_cooloff;
    if (!chaos.enabled) {
      mc.journal = std::make_shared<logbook::Journal>();
    }
  }
  if (!chaos.enabled) return mc;
  mc.relaunch_backoff_base = minutes(10);
  mc.relaunch_backoff_cap = hours(2);
  mc.escalate_after = 3;
  mc.heartbeat_timeout = chaos.heartbeat_timeout;
  mc.retry.enabled = true;
  mc.retry.base = chaos.retry_base;
  mc.retry.cap = chaos.retry_cap;
  mc.retry.max_retries = chaos.retry_max;
  mc.spool.enabled = true;
  mc.spool.period = chaos.spool_period;
  mc.resend_credit = chaos.resend_credit;
  // Control-plane durability: the write-ahead journal and the chunk store
  // live outside the Manager object, modelling the fsync'd files that
  // survive a control-plane crash. Appending to the journal consumes no
  // RNG draws and schedules no events, so chaos schedules are unchanged.
  mc.journal = std::make_shared<logbook::Journal>();
  mc.spool_store = std::make_shared<logbook::SpoolStore>();
  // Clock tracking rides with the clock fault knobs: sightings are recorded
  // on exchanges that happen anyway (status polls, fresh spool cuts), so
  // enabling it consumes no RNG draws and schedules no events.
  mc.track_clocks = chaos.clock_drift_mtbf > 0 || chaos.clock_step_mtbf > 0 ||
                    chaos.clock_freeze_mtbf > 0;
  return mc;
}

net::DefenseConfig abuse_defense_config() {
  // The DefenseConfig defaults ARE the tuned policy (they are calibrated
  // against the default abuse mix in test_abuse.cpp); this helper only
  // switches them on.
  net::DefenseConfig d;
  d.enabled = true;
  return d;
}

Campaign::Campaign(const CampaignConfig& config,
                   const std::vector<std::string>& home_server_names)
    : config_(validated(config)),
      world_(config.seed, config.behavior, config.scale,
             link_model(config.chaos)),
      defense_(effective_defense(config)),
      manager_(world_.network, manager_config(config.chaos, defense_)) {
  for (const auto& name : home_server_names) {
    add_server(name);
  }
  home_count_ = refs_.size();
  // Standbys only in chaos/Byzantine runs: adding nodes would shift every
  // later IP assignment otherwise.
  if (!config.chaos.enabled && !config.chaos.byzantine.enabled) return;
  for (std::size_t s = 0; s < config.chaos.backup_servers; ++s) {
    add_server("standby-" + std::to_string(s));
  }
  // Several home servers double as each other's backups (the paper's
  // "redirect them toward other servers"); a lone home server is no backup
  // for itself, so it escalates to the standbys alone.
  std::vector<honeypot::ServerRef> backups(
      refs_.begin() + (home_count_ == 1 ? 1 : 0), refs_.end());
  if (!backups.empty()) {
    manager_.set_backup_servers(std::move(backups));
  }
}

void Campaign::add_server(std::string name) {
  const auto node = world_.network.add_node(true);
  server::ServerConfig sc;
  sc.name = std::move(name);
  sc.defense = defense_;
  servers_.push_back(std::make_unique<server::Server>(world_.network, node, sc));
  servers_.back()->start();
  refs_.push_back(honeypot::ServerRef{node, sc.name, 4661});
}

honeypot::HoneypotConfig Campaign::honeypot_config(std::uint16_t id,
                                                   std::string name) const {
  const auto& chaos = config_.chaos;
  honeypot::HoneypotConfig hp;
  hp.id = id;
  hp.name = std::move(name);
  // Resource budgets: zero ceilings are exact no-ops, so unconditional
  // assignment keeps the budget-free goldens bit-identical.
  hp.budget.disk_quota_bytes = chaos.disk_quota_bytes;
  hp.budget.mem_budget_records = chaos.mem_budget_records;
  hp.budget.session_ceiling = chaos.session_ceiling;
  hp.budget.policy = chaos.degrade_policy;
  hp.budget.shed_user_word = fault::kAbuseUserWord;
  hp.audit_selftest_drop = chaos.audit_selftest_drop;
  if (chaos.byzantine.enabled && chaos.byzantine.defend) {
    hp.self_probe_period = chaos.byzantine.probe_period;
    hp.self_probe_timeout = chaos.byzantine.probe_timeout;
    hp.integrity_defense = true;
  }
  return hp;
}

honeypot::Honeypot& Campaign::launch(honeypot::HoneypotConfig config,
                                     const honeypot::ServerRef& server) {
  const auto host = world_.network.add_node(true);
  const auto index = manager_.launch(std::move(config), host, server);
  hosts_.push_back(&manager_.honeypot(index));
  return *hosts_.back();
}

void Campaign::arm_injectors() {
  const Duration horizon = config_.days * kDay;
  const Rng& rng = world_.simulation.rng();
  const std::size_t host_count = hosts_.size();

  // Fault injection: a seeded FaultPlan of host crash/reboot windows,
  // uplink outages, home-server restarts, latency spikes, partitions,
  // resource exhaustion and control-plane crashes. Dead honeypots are
  // respawned by the manager's status poll, exactly the paper's relaunch
  // mechanism. Host bindings go through the stable handles, not the
  // manager's fleet table: a host can crash, reboot or fill its disk while
  // the control plane is down.
  const auto& chaos = config_.chaos;
  if (chaos.enabled) {
    auto plan = fault::FaultPlan::generate(chaos, host_count, home_count_,
                                           horizon, rng.split(chaos.seed));
    fault::Injector::Bindings bind;
    bind.host_count = host_count;
    bind.host_node = [this](std::size_t h) { return hosts_[h]->node(); };
    bind.crash_host = [this](std::size_t h) { hosts_[h]->crash(); };
    auto resource = [this](budget::ResourceFault fault) {
      return [this, fault](std::size_t h, bool active, double magnitude) {
        hosts_[h]->set_resource_fault(fault, active, magnitude);
      };
    };
    bind.disk_full = resource(budget::ResourceFault::disk_full);
    bind.disk_slow = resource(budget::ResourceFault::disk_slow);
    bind.mem_pressure = resource(budget::ResourceFault::mem_pressure);
    bind.stop_server = [this](std::size_t s) { servers_[s]->stop(); };
    bind.start_server = [this](std::size_t s) { servers_[s]->start(); };
    bind.crash_manager = [this] {
      manager_down_at_ = world_.simulation.now();
      ++manager_crashes_;
      manager_.crash();
    };
    if (chaos.manager_recovery) {
      bind.recover_manager = [this] {
        manager_.recover(manager_down_at_);
        manager_down_at_ = -1.0;
      };
    }
    faults_ = std::make_unique<fault::Injector>(world_.network, std::move(plan),
                                                std::move(bind));
    faults_->arm();
  }

  // Adversarial traffic against every honeypot and home server. The
  // injector (and its hostile nodes) exists only when abuse is enabled, so
  // an abuse-free run allocates no extra nodes, consumes no extra RNG
  // draws, and stays bit-identical.
  if (config_.abuse.enabled) {
    const Rng abuse_rng = rng.split(config_.abuse.seed);
    auto plan = fault::AbusePlan::generate(config_.abuse, host_count,
                                           home_count_, horizon, abuse_rng);
    fault::AbuseInjector::Bindings bind;
    bind.honeypot_count = host_count;
    bind.honeypot_node = [this](std::size_t h) { return hosts_[h]->node(); };
    bind.server_count = home_count_;
    bind.server_node = [this](std::size_t s) { return refs_[s].node; };
    abuse_ = std::make_unique<fault::AbuseInjector>(
        world_.network, std::move(plan), config_.abuse, std::move(bind),
        abuse_rng.split(0xEE));
    abuse_->arm();
  }

  // Byzantine misbehavior: lie windows flipped on every server, home and
  // standby alike; liar peers run against the honeypots. Gated exactly like
  // abuse — disabled means no liar nodes, no RNG draws, bit-identical runs.
  const auto& byz = chaos.byzantine;
  if (byz.enabled) {
    const Rng byz_rng = rng.split(byz.seed);
    auto plan = fault::ByzantinePlan::generate(byz, host_count, servers_.size(),
                                               horizon, byz_rng);
    fault::ByzantineInjector::Bindings bind;
    bind.honeypot_count = host_count;
    bind.honeypot_node = [this](std::size_t h) { return hosts_[h]->node(); };
    bind.server_count = servers_.size();
    bind.drop_offers = [this](std::size_t s, bool active) {
      servers_[s]->set_drop_offers(active);
    };
    bind.truncate_offers = [this](std::size_t s, bool active, double keep) {
      servers_[s]->set_truncate_offers(active, keep);
    };
    bind.stale_index = [this](std::size_t s, bool active) {
      servers_[s]->set_stale_index(active);
    };
    bind.fabricate_sources = [this](std::size_t s, bool active,
                                       std::size_t count, std::uint64_t seed) {
      servers_[s]->set_fabricate_sources(active, count, seed);
    };
    bind.corrupt_search = [this](std::size_t s, bool active,
                                    std::uint64_t seed) {
      servers_[s]->set_corrupt_search(active, seed);
    };
    bind.advertised_files = [this](std::size_t h) {
      std::vector<proto::PublishedFile> out;
      for (const auto& f : hosts_[h]->advertised()) {
        proto::PublishedFile pf;
        pf.file = f.id;
        pf.port = 4662;
        pf.name = f.name;
        pf.size = f.size;
        out.push_back(std::move(pf));
      }
      return out;
    };
    byzantine_ = std::make_unique<fault::ByzantineInjector>(
        world_.network, std::move(plan), byz, std::move(bind),
        byz_rng.split(fault::splits::kByzContent));
    byzantine_->arm();
  }
}

void Campaign::run_days(std::ostream* progress) {
  // Day by day: progress lines and bounded queue growth.
  const double days = config_.days;
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(days); ++d) {
    world_.simulation.run_until((d + 1) * kDay);
    if (progress != nullptr) {
      *progress << "  day " << day_index(world_.simulation.now()) << "/"
                << static_cast<int>(days) << ", events "
                << world_.simulation.executed() << "\n";
    }
  }
  world_.simulation.run_until(days * kDay);
}

void Campaign::finish(ScenarioResult& result, peer::Population& population) {
  population.stop();
  // A crash window can reach past the horizon (its recover event is never
  // emitted). With recovery on, the restarted process replays the journal
  // now so the final gathering flushes every honeypot; with recovery off
  // the control plane stays dead and the run publishes what the durable
  // state alone can salvage.
  if (manager_down_at_ >= 0 && config_.chaos.manager_recovery) {
    manager_.recover(manager_down_at_);
    manager_down_at_ = -1.0;
  }
  manager_.stop();

  // After any control-plane crash the published dataset is what the durable
  // pipeline (journal-acked chunk store + salvaged local spools) yields —
  // the run's headline claim is that it matches the live merge bit-for-bit.
  const bool durable = manager_crashes_ > 0;
  result.merged = durable
                      ? manager_.merged_anonymized_durable(&result.distinct_peers)
                      : manager_.merged_anonymized(&result.distinct_peers);
  // The merge above is what fills the timestamp-integrity ledger and fixes
  // records_excluded; read them only afterwards.
  result.time_integrity = manager_.time_integrity();
  result.observed = manager_.observed_files();
  result.relaunches = manager_.relaunches();
  result.peer_totals = population.totals();
  result.recovery = manager_.recovery_stats();
  result.engine = world_.simulation.stats();
  result.net_totals = world_.network.totals();
  result.sim_events = result.engine.events_executed;
  result.wire_messages = result.net_totals.messages_delivered;
  result.wire_bytes = result.net_totals.bytes_delivered;
  result.population_arrivals = population.arrivals();
  result.population_peak_active = population.peak_active();
  result.population_slab_slots = population.slab_capacity();
  result.net_peak_live_nodes = world_.network.peak_live_node_count();
  result.net_nodes_retired = world_.network.nodes_retired();
  // Stream-mode accounting: sum the counts, chain the per-honeypot
  // fingerprints (in fleet order) into one run fingerprint.
  std::uint64_t sf = 1469598103934665603ull;
  for (std::size_t h = 0; h < manager_.fleet_size(); ++h) {
    const honeypot::Honeypot& hp = manager_.honeypot(h);
    result.records_streamed += hp.records_streamed();
    sf ^= hp.stream_fingerprint();
    sf *= 1099511628211ull;
  }
  result.stream_fingerprint = sf;
  result.peak_rss_bytes = peak_rss_bytes();

  if (faults_) {
    result.faults = faults_->stats();
    result.recovery.manager_crashes = result.faults.manager_crashes;
  }
  if (manager_down_at_ >= 0) {
    result.recovery.manager_downtime +=
        world_.simulation.now() - manager_down_at_;
  }
  result.defense = manager_.defense_stats();
  for (const auto& s : servers_) {
    result.defense += s->defense_stats();
  }
  for (const auto* hp : hosts_) {
    result.degrade += hp->degrade_stats();
  }
  if (abuse_) result.abuse = abuse_->stats();
  if (byzantine_) result.byzantine = byzantine_->stats();
  // Integrity accounting is filled unconditionally (all-zero when the
  // Byzantine model is off).
  result.integrity = manager_.integrity_stats();

  // The conservation ledger, from counters every subsystem already keeps;
  // an audited imbalance is a hard failure. The stable handles cover every
  // honeypot ever launched, fleet and orphans alike, since a manager crash
  // moves the owning unique_ptr but never the Honeypot object.
  auto& a = result.audit;
  a.enabled = config_.audit;
  a.records_merged = result.merged.records.size();
  a.records_shed = result.degrade.records_shed;
  a.records_excluded = manager_.records_excluded_last_merge();
  a.records_streamed = result.records_streamed;
  for (const auto* hp : hosts_) {
    a.records_born += hp->records_born();
    a.records_lost_tail += hp->records_lost_tail();
    // In-memory tails reach a live merge but not a durable salvage: they
    // are an accounted (spool-period-bounded) loss only on that path.
    if (durable) a.records_unflushed += hp->unspooled_tail();
  }
  if (durable) {
    a.records_quarantined = manager_.records_quarantined_last_merge();
  }
  audit::enforce(a);
}

}  // namespace edhp::scenario

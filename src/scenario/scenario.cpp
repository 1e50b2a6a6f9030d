#include "scenario/scenario.hpp"

#include <cmath>
#include <ostream>

#include "peer/top_peer.hpp"
#include "scenario/calibration.hpp"
#include "scenario/campaign.hpp"

namespace edhp::scenario {

DistributedConfig::DistributedConfig() : CampaignConfig(0.25, 20081001, 32) {}

GreedyConfig::GreedyConfig() : CampaignConfig(0.25, 20081101, 15) {
  // Among thousands of harvested files, clients typically want several from
  // the same provider (Figs 11/12 imply ~3.6 files per observed peer).
  behavior.secondary_targets_mean = 4.0;
}

ScenarioResult run_distributed(const DistributedConfig& config,
                               std::ostream* progress) {
  // The large server all honeypots connect to.
  Campaign campaign(config, {"big-server-2008"});
  World& world = campaign.world();
  if (config.diurnal) {
    world.diurnal = *config.diurnal;
  }
  auto& rng = world.simulation.rng();
  honeypot::Manager& manager = campaign.manager();
  const honeypot::ServerRef server = campaign.home_servers()[0];

  // Fleet: PlanetLab-like hosts; first half no-content, second half
  // random-content (the paper's 12/12 split).
  ScenarioResult result;
  result.honeypots = config.honeypots;
  result.days = config.days;
  result.random_content.resize(config.honeypots);
  // Visibility weights are drawn once per host *pair* (one no-content, one
  // random-content honeypot share each draw), so the two strategy groups
  // have identical weight profiles and the Fig 5/6 gap isolates the
  // blacklisting effect instead of host heterogeneity.
  Rng weight_rng = rng.split(0xBEEF);
  const std::size_t half = std::max<std::size_t>(1, config.honeypots / 2);
  std::vector<double> pair_weights(half);
  for (auto& w : pair_weights) {
    w = weight_rng.lognormal(0.0, config.behavior.source_weight_sigma);
  }
  for (std::size_t h = 0; h < config.honeypots; ++h) {
    const bool random_content = h >= config.honeypots / 2;
    result.random_content[h] = random_content;
    auto hp = campaign.honeypot_config(static_cast<std::uint16_t>(h),
                                       "hp-" + std::to_string(h));
    hp.strategy = random_content ? honeypot::ContentStrategy::random_content
                                 : honeypot::ContentStrategy::no_content;
    hp.harvest_shared_lists = true;
    hp.stream_records = config.stream_records;
    const auto& pot = campaign.launch(std::move(hp), server);
    // Per-honeypot visibility weight (uptime, bandwidth, position in
    // provider lists): drives the Fig 10 min/max spread.
    world.source_weights[world.network.info(pot.node()).ip.value()] =
        pair_weights[h % half];
  }
  manager.start();

  // The four advertised fake files.
  std::vector<honeypot::AdvertisedFile> files;
  Rng id_rng = rng.split(0xF11E);
  for (const auto& d : kDistributedFiles) {
    files.push_back(honeypot::AdvertisedFile{
        FileId::from_words(id_rng(), id_rng()), d.name, d.size});
  }
  // Give honeypots a moment to log in before advertising.
  world.simulation.run_until(30.0);
  manager.advertise_all(files);
  for (const auto& f : files) {
    result.advertised_ids.push_back(f.id);
  }
  result.advertised_files = files.size();

  // Interested-peer demand per file. A population override rescales every
  // file's finite pool pro-rata so the pools sum to the override, while the
  // arrival rates stay at the campaign baseline: the interested population
  // is how many peers *could* arrive, and since unarrived peers are pure
  // per-demand accounting, memory stays bounded by concurrency (rate x
  // lifetime) no matter how large the pool grows. Pools smaller than the
  // baseline bite earlier; pools larger never bite sooner.
  double pool_factor = 1.0;
  if (config.population_override > 0) {
    double scaled_total = 0;
    for (const auto& d : kDistributedFiles) {
      scaled_total += static_cast<double>(d.population) * config.scale;
    }
    pool_factor =
        static_cast<double>(config.population_override) / scaled_total;
  }
  peer::Population population(world.context(server.node), rng.split(0x90B));
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& d = kDistributedFiles[i];
    peer::FileDemand demand;
    demand.file = files[i].id;
    demand.base_rate_per_day = d.rate_per_day * config.scale;
    demand.decay_per_day = d.decay_per_day;
    demand.population = static_cast<std::uint64_t>(std::llround(
        static_cast<double>(d.population) * config.scale * pool_factor));
    demand.ramp_up = hours(6);  // server indexing + peers' re-query cadence
    population.add_demand(demand);
  }
  // Interested peers only find the honeypots once the server has indexed
  // and republished the OFFER-FILES lists; the paper saw its first query
  // after ~10 minutes.
  world.simulation.schedule_at(minutes(8),
                               [&population] { population.start(); });

  // Without chaos the historical hourly crash grid runs, bit-for-bit; the
  // chaos path's FaultPlan owns all churn instead.
  std::unique_ptr<sim::PeriodicTimer> crash_timer;
  if (!config.chaos.enabled && config.host_mtbf > 0) {
    crash_timer = fault::Injector::legacy_crash_grid(
        world.simulation, config.host_mtbf,
        [&manager] { return manager.fleet_size(); },
        [&manager](std::size_t h) { manager.honeypot(h).crash(); },
        rng.split(0xDEAD));
    crash_timer->start();
  }
  campaign.arm_injectors();

  // The single hyperactive peer of Figs 8/9.
  std::unique_ptr<peer::TopPeer> top;
  if (config.with_top_peer) {
    Rng top_rng = rng.split(0x709);
    peer::PeerProfile profile =
        peer::sample_profile(top_rng, config.behavior, world.diurnal);
    profile.client_name = "MLDonkey 2.9";  // crawler-ish client
    top = std::make_unique<peer::TopPeer>(world.network, server.node, profile,
                                          files[0].id, peer::TopPeerParams{},
                                          top_rng.split(7));
    world.simulation.schedule_at(hours(6), [&top] { top->start(); });
  }

  campaign.run_days(progress);
  if (top) top->stop();

  result.blacklist_reports = world.blacklist.reports();
  double rep_nc = 0, rep_rc = 0;
  std::size_t n_nc = 0, n_rc = 0;
  const auto hosts = campaign.hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const auto ip = world.network.info(hosts[h]->node()).ip.value();
    const double rep = world.blacklist.reputation(ip);
    if (result.random_content[h]) {
      rep_rc += rep;
      ++n_rc;
    } else {
      rep_nc += rep;
      ++n_nc;
    }
  }
  if (n_nc > 0) result.reputation_no_content = rep_nc / static_cast<double>(n_nc);
  if (n_rc > 0) result.reputation_random_content = rep_rc / static_cast<double>(n_rc);

  campaign.finish(result, population);
  return result;
}

ScenarioResult run_greedy(const GreedyConfig& config, std::ostream* progress) {
  Campaign campaign(config, {"big-server-2008"});
  World& world = campaign.world();
  auto& rng = world.simulation.rng();
  const honeypot::ServerRef server = campaign.home_servers()[0];

  auto hp = campaign.honeypot_config(0, "hp-greedy");
  hp.strategy = honeypot::ContentStrategy::no_content;  // sent no content
  hp.harvest_shared_lists = true;
  // integrity_defense stays OFF for the greedy strategy: it adopts the very
  // files it harvests from contacting peers, so the forged-list rule (peer
  // claims our own advertised hashes) would flag every honest provider and
  // break the harvest. Self-probes alone still catch the server-side lies.
  hp.integrity_defense = false;
  hp.greedy = true;
  hp.greedy_harvest_window = config.harvest_window;
  hp.greedy_max_files = std::max<std::size_t>(
      kGreedyAdvertisedFloor,
      static_cast<std::size_t>(
          std::llround(static_cast<double>(kGreedyAdvertisedFiles) * config.scale)));
  // Stable handle: survives manager crashes (see Campaign::hosts).
  const honeypot::Honeypot& pot = campaign.launch(std::move(hp), server);
  campaign.manager().start();

  ScenarioResult result;
  result.honeypots = 1;
  result.days = config.days;
  result.random_content = {false};

  // Seed files from the catalog.
  std::vector<honeypot::AdvertisedFile> seeds;
  for (const auto rank : kGreedySeeds) {
    const auto& f = world.catalog.at(rank);
    seeds.push_back(honeypot::AdvertisedFile{f.id, f.name, f.size});
  }
  world.simulation.run_until(30.0);
  campaign.manager().advertise(0, seeds);
  campaign.arm_injectors();

  // Demands follow the advertised list as it grows: a watcher adds a demand
  // for every newly advertised file. Per-file demand is a property of the
  // network (not of the honeypot) and is NOT scaled: the greedy measurement
  // scales through the size of the harvested list instead.
  peer::Population population(world.context(server.node), rng.split(0x90B));
  Rng demand_rng = rng.split(0xDE3A);
  std::size_t demanded = 0;
  auto sync_demands = [&] {
    // Through the stable handle: the watcher keeps firing during a
    // control-plane outage, when the manager's fleet table is empty.
    const auto& advertised = pot.advertised();
    while (demanded < advertised.size()) {
      const auto& file = advertised[demanded];
      ++demanded;
      const double peers_over_run = demand_rng.lognormal(
          kGreedyPeersPerFileMu, kGreedyPeersPerFileSigma);
      peer::FileDemand demand;
      demand.file = file.id;
      demand.base_rate_per_day = peers_over_run / config.days;
      demand.decay_per_day = 0.0;  // stable inflow (Fig 3)
      demand.population = static_cast<std::uint64_t>(
          std::llround(peers_over_run * kGreedyPoolFactor));
      // Fresh advertisements are noticed gradually: this keeps day 1 (the
      // harvest phase) nearly invisible in Fig 3, as the paper observed.
      demand.ramp_up = hours(20);
      population.add_demand(demand);
    }
  };
  sync_demands();
  sim::PeriodicTimer demand_watcher(world.simulation, minutes(10), sync_demands);
  demand_watcher.start();
  population.start();

  campaign.run_days(progress);
  demand_watcher.stop();
  campaign.finish(result, population);

  result.advertised_files = pot.advertised().size();
  for (const auto& f : pot.advertised()) {
    result.advertised_ids.push_back(f.id);
  }
  return result;
}

std::function<bool(std::uint16_t)> strategy_filter(const ScenarioResult& result,
                                                   bool random_content) {
  std::vector<bool> mask = result.random_content;
  return [mask, random_content](std::uint16_t h) {
    return h < mask.size() && mask[h] == random_content;
  };
}

}  // namespace edhp::scenario

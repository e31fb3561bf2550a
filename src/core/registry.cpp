#include "core/registry.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "net/units.h"
#include "net/variability.h"
#include "workload/trace.h"

namespace sc::core::registry {

std::string to_string(Kind kind) {
  switch (kind) {
    case Kind::kPolicy: return "policy";
    case Kind::kEstimator: return "estimator";
    case Kind::kScenario: return "scenario";
  }
  return "?";
}

namespace {

// The longest trace held in memory (1.5 GiB of columns, 3 GiB at the
// load's peak). Re-streaming re-parses the file in every simulation,
// 4-5x slower end to end (docs/PERF.md, "Trace residency").
constexpr std::size_t kResidentTraceRequests = std::size_t{1} << 26;

template <typename Factory>
struct Axis {
  std::vector<std::pair<ComponentInfo, Factory>> entries;

  const std::pair<ComponentInfo, Factory>* find(const std::string& name) const {
    for (const auto& entry : entries) {
      if (entry.first.name == name) return &entry;
      for (const auto& alias : entry.first.aliases) {
        if (alias == name) return &entry;
      }
    }
    return nullptr;
  }

  void add(Kind kind, ComponentInfo info, Factory factory) {
    info.name = util::to_lower(info.name);
    for (auto& alias : info.aliases) alias = util::to_lower(alias);
    for (auto& param : info.params) param = util::to_lower(param);
    std::vector<std::string> taken = {info.name};
    taken.insert(taken.end(), info.aliases.begin(), info.aliases.end());
    for (const auto& name : taken) {
      if (find(name) != nullptr) {
        throw util::SpecError("duplicate " + to_string(kind) + " name \"" +
                              name + "\"");
      }
    }
    entries.emplace_back(std::move(info), std::move(factory));
  }

  /// Canonical names, sorted.
  std::vector<std::string> canonical() const {
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto& entry : entries) out.push_back(entry.first.name);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Canonical names plus aliases (suggestion candidates).
  std::vector<std::string> all_names() const {
    std::vector<std::string> out;
    for (const auto& entry : entries) {
      out.push_back(entry.first.name);
      out.insert(out.end(), entry.first.aliases.begin(),
                 entry.first.aliases.end());
    }
    return out;
  }

  const std::pair<ComponentInfo, Factory>& resolve(Kind kind,
                                                   const util::Spec& spec) {
    const auto* entry = find(spec.name);
    if (entry == nullptr) {
      std::string message = "unknown " + to_string(kind) + " \"" + spec.name +
                            "\" (registered: " + util::join(canonical()) + ")";
      if (const auto suggestion = util::closest_match(spec.name, all_names())) {
        message += "; did you mean \"" + *suggestion + "\"?";
      }
      throw util::SpecError(message);
    }
    std::vector<std::string_view> known(entry->first.params.begin(),
                                        entry->first.params.end());
    spec.require_only(known);
    return *entry;
  }
};

struct Tables {
  Axis<PolicyFactory> policies;
  Axis<EstimatorFactory> estimators;
  Axis<ScenarioFactory> scenarios;
};

net::MeasuredPath measured_path_for(const util::Spec& spec) {
  if (spec.name == "timeseries-taiwan") return net::MeasuredPath::kTaiwan;
  if (spec.name == "timeseries-hongkong") return net::MeasuredPath::kHongKong;
  if (spec.name == "timeseries-inria") return net::MeasuredPath::kInria;
  // Bare "timeseries": the path parameter picks the measured trace.
  const std::string value = util::to_lower(spec.get_string("path", "inria"));
  if (value == "0" || value == "inria") return net::MeasuredPath::kInria;
  if (value == "1" || value == "taiwan") return net::MeasuredPath::kTaiwan;
  if (value == "2" || value == "hongkong" || value == "hong-kong" ||
      value == "hk") {
    return net::MeasuredPath::kHongKong;
  }
  throw util::SpecError("spec \"" + spec.to_string() +
                        "\": unknown path \"" + value +
                        "\" (valid: inria|0, taiwan|1, hongkong|2)");
}

// Estimator spec defaults. The dispatch (sim/arena.h) rebinds
// registry-built estimators instead of parsing specs itself, so this is
// their only copy.
constexpr double kDefaultEwmaAlpha = 0.3;
constexpr double kDefaultPriorKbps = 50.0;
constexpr double kDefaultProbeIntervalS = 3600.0;

Tables make_builtins() {
  Tables t;

  // ---- policies ---------------------------------------------------------
  // Constructed as bare UtilityPolicy instantiations: the dispatch
  // (sim/arena.h) recognizes exactly these types and runs them on
  // kernel engines.
  const auto simple_policy = [](auto kernel_tag) {
    using Kernel = decltype(kernel_tag);
    return [](const util::Spec&, const PolicyContext& ctx)
               -> std::unique_ptr<cache::CachePolicy> {
      return std::make_unique<cache::UtilityPolicy<Kernel>>(ctx.catalog,
                                                            ctx.estimator);
    };
  };
  t.policies.add(Kind::kPolicy,
                 {"if", {}, "integral frequency-based (in-cache LFU)", {}},
                 simple_policy(cache::IfKernel{}));
  t.policies.add(Kind::kPolicy,
                 {"pb", {}, "partial bandwidth-based prefix caching", {}},
                 simple_policy(cache::PbKernel{}));
  t.policies.add(Kind::kPolicy,
                 {"ib", {}, "integral bandwidth-based whole objects", {}},
                 simple_policy(cache::IbKernel{}));
  t.policies.add(
      Kind::kPolicy,
      {"hybrid", {}, "PB with bandwidth underestimated by e", {"e"}},
      [](const util::Spec& spec, const PolicyContext& ctx)
          -> std::unique_ptr<cache::CachePolicy> {
        return std::make_unique<cache::HybridPolicy>(
            ctx.catalog, ctx.estimator,
            spec.get_double("e", cache::kDefaultKernelE));
      });
  t.policies.add(
      Kind::kPolicy,
      {"pbv", {"pb-v"}, "partial bandwidth-value-based caching", {"e"}},
      [](const util::Spec& spec, const PolicyContext& ctx)
          -> std::unique_ptr<cache::CachePolicy> {
        return std::make_unique<cache::PbvPolicy>(
            ctx.catalog, ctx.estimator,
            spec.get_double("e", cache::kDefaultKernelE));
      });
  t.policies.add(Kind::kPolicy,
                 {"ibv", {"ib-v"}, "integral bandwidth-value-based", {}},
                 simple_policy(cache::IbvKernel{}));
  t.policies.add(Kind::kPolicy,
                 {"lru", {}, "whole-object LRU baseline", {}},
                 simple_policy(cache::LruKernel{}));
  // In-cache LFU is IF's rule: the same kernel under §3.3's name.
  t.policies.add(
      Kind::kPolicy, {"lfu", {}, "whole-object LFU baseline", {}},
      [](const util::Spec&, const PolicyContext& ctx)
          -> std::unique_ptr<cache::CachePolicy> {
        return std::make_unique<cache::IfPolicy>(ctx.catalog, ctx.estimator,
                                                 "LFU");
      });

  // ---- estimators -------------------------------------------------------
  // Constructed as bare KernelEstimator instantiations, which the
  // dispatch runs on kernel engines and later rebinds (net/estimator.h).
  t.estimators.add(
      Kind::kEstimator,
      {"oracle", {}, "true long-run per-path mean (paper's setting)", {}},
      [](const util::Spec&, EstimatorContext& ctx) {
        return std::make_unique<net::KernelEstimator<net::OracleKernel>>(
            ctx.paths);
      });
  t.estimators.add(
      Kind::kEstimator,
      {"ewma",
       {"passive-ewma"},
       "passive EWMA over observed transfer throughput",
       {"alpha", "prior_kbps"}},
      [](const util::Spec& spec, EstimatorContext& ctx) {
        return std::make_unique<net::KernelEstimator<net::EwmaKernel>>(
            ctx.paths.size(), spec.get_double("alpha", kDefaultEwmaAlpha),
            net::from_kb(spec.get_double("prior_kbps", kDefaultPriorKbps)));
      });
  t.estimators.add(
      Kind::kEstimator,
      {"last",
       {"last-sample"},
       "most recent observed throughput only",
       {"prior_kbps"}},
      [](const util::Spec& spec, EstimatorContext& ctx) {
        // An EWMA whose newest sample has weight 1 (net/estimator.h).
        return std::make_unique<net::KernelEstimator<net::EwmaKernel>>(
            ctx.paths.size(), 1.0,
            net::from_kb(spec.get_double("prior_kbps", kDefaultPriorKbps)));
      });
  t.estimators.add(
      Kind::kEstimator,
      {"probe",
       {"active-probe"},
       "active TCP-model probing with overhead accounting",
       {"interval_s", "train_packets"}},
      [](const util::Spec& spec, EstimatorContext& ctx) {
        net::ProbeConfig probe_config;
        probe_config.train_packets = static_cast<std::size_t>(
            spec.get_int("train_packets",
                         static_cast<long long>(probe_config.train_packets)));
        return std::make_unique<net::KernelEstimator<net::ProbeKernel>>(
            ctx.paths, probe_config,
            spec.get_double("interval_s", kDefaultProbeIntervalS), ctx.rng);
      });

  // ---- scenarios --------------------------------------------------------
  t.scenarios.add(Kind::kScenario,
                  {"constant", {}, "NLANR means, no time variation", {}},
                  [](const util::Spec&) { return constant_scenario(); });
  t.scenarios.add(
      Kind::kScenario,
      {"nlanr",
       {"nlanr-variability"},
       "NLANR means, iid high-variability ratios (Fig 3)",
       {}},
      [](const util::Spec&) { return nlanr_variability_scenario(); });
  t.scenarios.add(
      Kind::kScenario,
      {"measured",
       {"measured-variability"},
       "NLANR means, iid low-variability measured ratios (Fig 4)",
       {}},
      [](const util::Spec&) { return measured_variability_scenario(); });
  t.scenarios.add(
      Kind::kScenario,
      {"timeseries",
       {"timeseries-inria", "timeseries-taiwan", "timeseries-hongkong"},
       "NLANR means, AR(1) ratio time series from a measured path",
       {"path"}},
      [](const util::Spec& spec) {
        if (spec.name != "timeseries" && spec.has("path")) {
          throw util::SpecError("spec \"" + spec.to_string() +
                                "\": the path is implied by the name; use "
                                "\"timeseries:path=...\" instead");
        }
        return timeseries_scenario(measured_path_for(spec));
      });
  t.scenarios.add(
      Kind::kScenario,
      {"trace",
       {"replay"},
       "replay a recorded workload trace (workload/trace.h format); "
       "file=PATH is required, bw= names the bandwidth scenario "
       "(default constant); a trace declaring more than 64M requests "
       "keeps only its catalog resident and re-streams request records "
       "from disk chunk-wise (O(chunk) memory for multi-GB traces)",
       {"file", "bw"}},
      [](const util::Spec& spec) {
        const std::string file = spec.get_string("file", "");
        if (file.empty()) {
          throw util::SpecError(
              "scenario \"trace\" requires file=PATH "
              "(e.g. --scenario=trace:file=workload.trace)");
        }
        const std::string bw = spec.get_string("bw", "constant");
        // The bandwidth environment is any *other* registered scenario.
        Scenario scenario = make_scenario(bw);
        if (scenario.stream != nullptr) {
          throw util::SpecError("scenario \"trace\": bw=" + bw +
                                " must name a bandwidth scenario, not "
                                "another trace");
        }
        // Read exactly once per make_scenario call, into memory up to
        // kResidentTraceRequests (the header's declared count, which
        // the reader checks at end of file), else validated and
        // indexed for re-streaming: SweepRunner shares the resulting
        // immutable stream across every cell and replication.
        const std::size_t declared =
            workload::TraceReader(file, workload::TraceReader::kSkipObjects)
                .declared_requests();
        scenario.stream = std::make_shared<const workload::RequestStream>(
            declared <= kResidentTraceRequests
                ? workload::RequestStream::replay(
                      std::make_shared<const workload::Workload>(
                          workload::read_trace(file)))
                : workload::RequestStream::trace_file(file));
        scenario.name = "trace(" + file + ")+" + scenario.name;
        return scenario;
      });

  return t;
}

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

Tables& tables() {
  static Tables t = make_builtins();
  return t;
}

}  // namespace

void register_policy(ComponentInfo info, PolicyFactory factory) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  tables().policies.add(Kind::kPolicy, std::move(info), std::move(factory));
}

void register_estimator(ComponentInfo info, EstimatorFactory factory) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  tables().estimators.add(Kind::kEstimator, std::move(info),
                          std::move(factory));
}

void register_scenario(ComponentInfo info, ScenarioFactory factory) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  tables().scenarios.add(Kind::kScenario, std::move(info), std::move(factory));
}

std::unique_ptr<cache::CachePolicy> make_policy(const util::Spec& spec,
                                                const PolicyContext& context) {
  PolicyFactory factory;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    factory = tables().policies.resolve(Kind::kPolicy, spec).second;
  }
  return factory(spec, context);
}

std::unique_ptr<cache::CachePolicy> make_policy(
    const std::string& spec, const workload::Catalog& catalog,
    net::BandwidthEstimator& estimator) {
  return make_policy(util::Spec::parse(spec),
                     PolicyContext{catalog, estimator});
}

std::unique_ptr<net::BandwidthEstimator> make_estimator(
    const util::Spec& spec, EstimatorContext context) {
  EstimatorFactory factory;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    factory = tables().estimators.resolve(Kind::kEstimator, spec).second;
  }
  return factory(spec, context);
}

std::unique_ptr<net::BandwidthEstimator> make_estimator(
    const std::string& spec, const net::PathModel& paths, util::Rng rng) {
  return make_estimator(util::Spec::parse(spec),
                        EstimatorContext{paths, std::move(rng)});
}

Scenario make_scenario(const util::Spec& spec) {
  ScenarioFactory factory;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    factory = tables().scenarios.resolve(Kind::kScenario, spec).second;
  }
  return factory(spec);
}

Scenario make_scenario(const std::string& spec) {
  return make_scenario(util::Spec::parse(spec));
}

void validate(Kind kind, const std::string& spec) {
  const util::Spec parsed = util::Spec::parse(spec);
  const std::lock_guard<std::mutex> lock(registry_mutex());
  switch (kind) {
    case Kind::kPolicy:
      (void)tables().policies.resolve(kind, parsed);
      break;
    case Kind::kEstimator:
      (void)tables().estimators.resolve(kind, parsed);
      break;
    case Kind::kScenario:
      (void)tables().scenarios.resolve(kind, parsed);
      break;
  }
}

std::vector<ComponentInfo> list(Kind kind) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<ComponentInfo> out;
  const auto collect = [&out](const auto& axis) {
    for (const auto& entry : axis.entries) out.push_back(entry.first);
  };
  switch (kind) {
    case Kind::kPolicy: collect(tables().policies); break;
    case Kind::kEstimator: collect(tables().estimators); break;
    case Kind::kScenario: collect(tables().scenarios); break;
  }
  std::sort(out.begin(), out.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<std::string> names(Kind kind) {
  std::vector<std::string> out;
  for (const auto& info : list(kind)) out.push_back(info.name);
  return out;
}

std::string help() {
  std::string out;
  for (const Kind kind :
       {Kind::kPolicy, Kind::kEstimator, Kind::kScenario}) {
    out += to_string(kind);
    out += " specs (--";
    out += to_string(kind);
    out += "=name[:key=value,...]):\n";
    for (const auto& info : list(kind)) {
      out += "  " + info.name;
      if (!info.aliases.empty()) {
        out += " (aliases: " + util::join(info.aliases) + ")";
      }
      out += " — " + info.summary;
      if (!info.params.empty()) {
        out += "; params: " + util::join(info.params);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace sc::core::registry

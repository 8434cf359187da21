#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "scenario/object_reader.hpp"

namespace annoc::scenario {
namespace {

std::vector<traffic::SizeMix> parse_sizes(const JsonMember& m,
                                          const ObjectReader& core_r,
                                          const std::string& origin) {
  if (!m.value().is(JsonKind::kArray) || m.value().array.empty()) {
    core_r.fail(m, "expected a non-empty array of {bytes, weight} objects");
  }
  static constexpr KeyInfo kSizeKeys[] = {
      {"bytes", "number", "-", hand(), ""},
      {"weight", "number", "-", hand(), ""},
  };
  std::vector<traffic::SizeMix> mix;
  for (const JsonValue& e : m.value().array) {
    if (!e.is(JsonKind::kObject)) {
      throw ParseError(origin, e.line, e.column, "sizes",
                       "each size entry must be a {bytes, weight} object");
    }
    ObjectReader er(e, kSizeKeys, origin, "size entry");
    traffic::SizeMix sm;
    sm.bytes =
        static_cast<std::uint32_t>(er.u64_of(er.require("bytes"), 1, 1u << 20));
    const JsonMember& w = er.require("weight");
    sm.weight = er.double_of(w, 0.0, 1.0e12);
    if (sm.weight <= 0.0) {
      er.fail(w, "weight must be > 0");
    }
    mix.push_back(sm);
  }
  return mix;
}

/// Cross-field: a channel granule wider than the address-map chunk would
/// let one request straddle two controllers. Only diagnosable when one
/// of the involved keys is present; the MemoryMap asserts the same
/// invariant at simulator construction.
void check_channel_granule(const ObjectReader& r,
                           const core::SystemConfig& cfg) {
  const std::uint32_t chunk =
      cfg.map_chunk_bytes != 0 ? cfg.map_chunk_bytes : 256u;
  if (cfg.num_controllers > 1 && cfg.interleave_shift &&
      (std::uint64_t{1} << *cfg.interleave_shift) > chunk) {
    const JsonMember* m = r.find("interleave_shift");
    if (m == nullptr) m = r.find("map_chunk_bytes");
    if (m == nullptr) m = r.find("num_controllers");
    if (m != nullptr) {
      r.fail(*m, "channel granule (1 << " +
                     std::to_string(*cfg.interleave_shift) + " = " +
                     std::to_string(std::uint64_t{1}
                                    << *cfg.interleave_shift) +
                     " bytes) exceeds the address-map chunk (" +
                     std::to_string(chunk) +
                     " bytes); a request could straddle two controllers");
    }
  }
}

/// One entry of the `cores` array -> CoreSpec (+ optional node/region).
struct ParsedCore {
  traffic::CoreSpec spec;
  std::optional<NodeId> node;
  bool explicit_region = false;
  const JsonValue* value = nullptr;
};

ParsedCore parse_core(const JsonValue& v, const std::string& origin,
                      std::uint64_t mesh_nodes,
                      const noc::TopologySpec* topo) {
  if (!v.is(JsonKind::kObject)) {
    throw ParseError(origin, v.line, v.column, "cores",
                     "each core must be an object");
  }
  ObjectReader r(v, kCoreKeys, origin, "core");
  ParsedCore pc;
  pc.value = &v;
  traffic::CoreSpec& s = pc.spec;
  {
    const JsonMember& m = r.require("name");
    if (!m.value().is(JsonKind::kString) || m.value().string.empty()) {
      r.fail(m, "expected a non-empty string");
    }
    s.name = m.value().string;
  }
  if (const JsonMember* m = r.find("node")) {
    if (m->value().is(JsonKind::kString)) {
      if (topo == nullptr) {
        r.fail(*m, "node names need a topology; meshes place cores by "
                   "row-major id");
      }
      const std::optional<NodeId> idx = topo->index_of(m->value().string);
      if (!idx) {
        r.fail(*m, "unknown node '" + m->value().string +
                       "' (not in topology.nodes)");
      }
      pc.node = *idx;
    } else {
      pc.node = static_cast<NodeId>(r.u64_of(*m, 0, mesh_nodes - 1));
    }
  }
  r.read_bound(s);
  if (const JsonMember* m = r.find("sizes")) {
    s.sizes = parse_sizes(*m, r, origin);
  }
  if (const JsonMember* m = r.find("region_base")) {
    pc.explicit_region = true;
    s.region_base = r.u64_of(*m, 0, 1ull << 48);
  }
  // The largest request must fit in the region (the generator wraps the
  // cursor, but a request bigger than the region cannot be addressed).
  std::uint64_t largest = s.demand_bytes;
  for (const traffic::SizeMix& sm : s.sizes) {
    largest = std::max<std::uint64_t>(largest, sm.bytes);
  }
  if (largest > s.region_bytes) {
    throw ParseError(origin, v.line, v.column, "region_bytes",
                     "region (" + std::to_string(s.region_bytes) +
                         " bytes) is smaller than the largest request (" +
                         std::to_string(largest) + " bytes)");
  }
  return pc;
}

/// One endpoint of a link entry: a node name or a bare index.
NodeId parse_link_endpoint(const JsonValue& e, const noc::TopologySpec& spec,
                           const std::string& origin) {
  if (e.is(JsonKind::kString)) {
    const std::optional<NodeId> idx = spec.index_of(e.string);
    if (!idx) {
      throw ParseError(origin, e.line, e.column, "links",
                       "unknown node '" + e.string +
                           "' (not in topology.nodes)");
    }
    return *idx;
  }
  if (!e.is(JsonKind::kNumber)) {
    throw ParseError(origin, e.line, e.column, "links",
                     "link endpoints are node names or indices, got " +
                         std::string(to_string(e.kind)));
  }
  const double v = e.number;
  if (v < 0.0 || v != std::floor(v) ||
      v >= static_cast<double>(spec.num_nodes())) {
    throw ParseError(origin, e.line, e.column, "links",
                     "node index out of range [0, " +
                         std::to_string(spec.num_nodes() - 1) + "]");
  }
  return static_cast<NodeId>(v);
}

/// Parse and fully validate a topology object into the fabric it
/// defines: the spec plus the router knobs that live beside it (an
/// irregular fabric has no `mesh` object to carry them). Every
/// structural issue TopologyIssue can report is re-checked key-by-key
/// here so the diagnostic carries the offending member's file position;
/// the final validate_topology call catches what the per-key checks
/// cannot see ahead of time (connectivity) and guards against drift
/// between the two layers.
noc::NocConfig parse_topology_object(const JsonValue& v,
                                     const std::string& origin) {
  if (!v.is(JsonKind::kObject)) {
    throw ParseError(origin, v.line, v.column, "topology",
                     "expected an object or a file path string");
  }
  ObjectReader r(v, kTopologyKeys, origin, "topology");
  auto shared = std::make_shared<noc::TopologySpec>();
  noc::TopologySpec& spec = *shared;

  const JsonMember& nodes_m = r.require("nodes");
  if (!nodes_m.value().is(JsonKind::kArray) ||
      nodes_m.value().array.empty()) {
    r.fail(nodes_m, "expected a non-empty array of node names");
  }
  if (nodes_m.value().array.size() > 4096) {
    r.fail(nodes_m, "more than 4096 nodes");
  }
  for (const JsonValue& e : nodes_m.value().array) {
    if (!e.is(JsonKind::kString) || e.string.empty()) {
      throw ParseError(origin, e.line, e.column, "nodes",
                       "each node is a non-empty name string");
    }
    if (spec.index_of(e.string)) {
      throw ParseError(origin, e.line, e.column, "nodes",
                       "duplicate node name '" + e.string + "'");
    }
    spec.node_names.push_back(e.string);
  }

  const JsonMember& links_m = r.require("links");
  if (!links_m.value().is(JsonKind::kArray)) {
    r.fail(links_m, "expected an array of [\"a\", \"b\"] pairs");
  }
  std::vector<std::uint32_t> degree(spec.num_nodes(), 0);
  for (const JsonValue& e : links_m.value().array) {
    if (!e.is(JsonKind::kArray) || e.array.size() != 2) {
      throw ParseError(origin, e.line, e.column, "links",
                       "each link is a two-element [\"a\", \"b\"] pair");
    }
    const NodeId a = parse_link_endpoint(e.array[0], spec, origin);
    const NodeId b = parse_link_endpoint(e.array[1], spec, origin);
    if (a == b) {
      throw ParseError(origin, e.line, e.column, "links",
                       "node '" + spec.node_names[a] +
                           "' is linked to itself");
    }
    for (const noc::TopologySpec::Edge& prev : spec.links) {
      if ((prev.a == a && prev.b == b) || (prev.a == b && prev.b == a)) {
        throw ParseError(origin, e.line, e.column, "links",
                         "duplicate link between '" + spec.node_names[a] +
                             "' and '" + spec.node_names[b] + "'");
      }
    }
    for (const NodeId n : {a, b}) {
      if (degree[n] == 4) {
        throw ParseError(origin, e.line, e.column, "links",
                         "node '" + spec.node_names[n] +
                             "' needs a fifth link; a router has 4 "
                             "neighbour ports");
      }
      ++degree[n];
    }
    spec.links.push_back({a, b});
  }

  const noc::TopologyIssue issue = noc::validate_topology(spec);
  if (!issue.ok()) {
    // Connectivity (and any check the per-key loop above missed).
    throw ParseError(origin, v.line, v.column, "topology",
                     issue.message(spec));
  }

  noc::NocConfig noc;
  r.read_bound(noc);
  // Node count and wiring come from the spec; width/height only satisfy
  // the mesh invariant width*height == n.
  noc.width = static_cast<std::uint32_t>(spec.num_nodes());
  noc.height = 1;
  noc.topology = std::move(shared);
  return noc;
}

/// Resolve a string-valued `topology` key: read the named file
/// (relative paths resolve against the scenario's directory) and parse
/// the whole document as one topology object, so its diagnostics are
/// positioned inside the topology file.
noc::NocConfig load_topology_file(const ObjectReader& r, const JsonMember& m,
                                  const std::string& base_dir) {
  std::string path = m.value().string;
  if (path.empty()) {
    r.fail(m, "topology file path is empty");
  }
  if (path.front() != '/' && !base_dir.empty()) {
    path = base_dir + "/" + path;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    r.fail(m, "cannot open topology file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return parse_topology_object(parse_json(text, path), path);
}

traffic::Application build_custom_app(const ObjectReader& top,
                                      const JsonMember* mesh_m,
                                      const JsonMember& cores_m,
                                      const noc::NocConfig* topo,
                                      const std::string& name,
                                      const std::string& origin) {
  noc::NocConfig noc;
  if (topo != nullptr) {
    noc = *topo;
  } else {
    if (!mesh_m->value().is(JsonKind::kObject)) {
      top.fail(*mesh_m, "expected an object");
    }
    ObjectReader mr(mesh_m->value(), kMeshKeys, origin, "mesh");
    mr.read_bound(noc);
    if (const JsonMember* m = mr.find("mem_node")) {
      (void)mr.u64_of(*m, 0, std::uint64_t{noc.width} * noc.height - 1);
    }
  }
  const std::uint64_t nodes = std::uint64_t{noc.width} * noc.height;

  if (!cores_m.value().is(JsonKind::kArray) ||
      cores_m.value().array.empty()) {
    top.fail(cores_m, "expected a non-empty array of core objects");
  }
  std::vector<ParsedCore> cores;
  for (const JsonValue& v : cores_m.value().array) {
    cores.push_back(
        parse_core(v, origin, nodes, topo ? topo->topology.get() : nullptr));
  }

  // node and region_base are each all-or-none across the array: mixing
  // placed and auto-placed cores (or laid-out and auto-laid regions)
  // has no sensible meaning, so it is an error, not a guess.
  const std::size_t with_node = static_cast<std::size_t>(
      std::count_if(cores.begin(), cores.end(),
                    [](const ParsedCore& c) { return c.node.has_value(); }));
  const std::size_t with_region = static_cast<std::size_t>(std::count_if(
      cores.begin(), cores.end(),
      [](const ParsedCore& c) { return c.explicit_region; }));
  if (with_node != 0 && with_node != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.node.has_value(); });
    throw ParseError(origin, c.value->line, c.value->column, "node",
                     "either every core names a node or none does "
                     "(auto-placement)");
  }
  if (with_region != 0 && with_region != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.explicit_region; });
    throw ParseError(origin, c.value->line, c.value->column, "region_base",
                     "either every core names a region_base or none does "
                     "(back-to-back layout)");
  }
  if (topo != nullptr && with_node != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.node.has_value(); });
    throw ParseError(origin, c.value->line, c.value->column, "node",
                     "topology mode places cores explicitly: give every "
                     "core a node (auto-placement is a mesh concept)");
  }

  if (with_region == 0) {
    std::uint64_t cursor = 0;
    for (ParsedCore& c : cores) {
      c.spec.region_base = cursor;
      cursor += c.spec.region_bytes;
    }
  }

  if (with_node == cores.size()) {
    // Explicit placement: nodes must be distinct; partial meshes are
    // fine (routers without a core simply forward traffic).
    std::vector<bool> used(nodes, false);
    traffic::Application app;
    app.name = name;
    app.noc = noc;
    for (ParsedCore& c : cores) {
      const NodeId n = *c.node;
      if (used[n]) {
        throw ParseError(origin, c.value->line, c.value->column, "node",
                         "node " + std::to_string(n) +
                             " is assigned to two cores");
      }
      used[n] = true;
      app.cores.push_back({std::move(c.spec), n});
    }
    return app;
  }

  // Auto-placement (the A3MAP substitute) fills the whole mesh.
  if (cores.size() != nodes) {
    top.fail(cores_m,
             "auto-placement needs exactly width*height (" +
                 std::to_string(nodes) + ") cores, got " +
                 std::to_string(cores.size()) +
                 "; give every core an explicit node for a partial mesh");
  }
  std::vector<traffic::CoreSpec> specs;
  specs.reserve(cores.size());
  for (ParsedCore& c : cores) specs.push_back(std::move(c.spec));
  return traffic::place_application(name, noc, std::move(specs));
}

/// Parse the `memory` object into cfg.mem_nodes (controller placement)
/// and cfg.controller_overrides. `fabric_nodes` is the node count of
/// the final fabric (after any mesh_preset re-tiling).
void parse_memory(const ObjectReader& top, const JsonMember& m,
                  core::SystemConfig& cfg, const noc::TopologySpec* topo,
                  std::uint64_t fabric_nodes, const std::string& origin) {
  if (!m.value().is(JsonKind::kObject)) {
    top.fail(m, "expected an object");
  }
  ObjectReader r(m.value(), kMemoryKeys, origin, "memory");
  if (const JsonMember* nm = r.find("nodes")) {
    if (!nm->value().is(JsonKind::kArray) || nm->value().array.empty()) {
      r.fail(*nm, "expected a non-empty array of controller nodes");
    }
    if (nm->value().array.size() != cfg.num_controllers) {
      r.fail(*nm, "expected one node per controller (num_controllers = " +
                      std::to_string(cfg.num_controllers) + "), got " +
                      std::to_string(nm->value().array.size()));
    }
    std::vector<NodeId> mems;
    for (const JsonValue& e : nm->value().array) {
      NodeId n = 0;
      if (e.is(JsonKind::kString)) {
        if (topo == nullptr) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "node names need a topology; meshes place "
                           "controllers by row-major id");
        }
        const std::optional<NodeId> idx = topo->index_of(e.string);
        if (!idx) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "unknown node '" + e.string +
                               "' (not in topology.nodes)");
        }
        n = *idx;
      } else if (e.is(JsonKind::kNumber)) {
        const double v = e.number;
        if (v < 0.0 || v != std::floor(v) ||
            v >= static_cast<double>(fabric_nodes)) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "node index out of range [0, " +
                               std::to_string(fabric_nodes - 1) + "]");
        }
        n = static_cast<NodeId>(v);
      } else {
        throw ParseError(origin, e.line, e.column, "nodes",
                         "controller nodes are names or indices, got " +
                             std::string(to_string(e.kind)));
      }
      if (std::find(mems.begin(), mems.end(), n) != mems.end()) {
        throw ParseError(origin, e.line, e.column, "nodes",
                         "node " + std::to_string(n) +
                             " hosts two controllers");
      }
      mems.push_back(n);
    }
    cfg.mem_nodes = std::move(mems);
  }
  if (const JsonMember* cm = r.find("controllers")) {
    if (!cm->value().is(JsonKind::kArray)) {
      r.fail(*cm, "expected an array of per-controller override objects");
    }
    if (cm->value().array.size() > cfg.num_controllers) {
      r.fail(*cm, "more override entries (" +
                      std::to_string(cm->value().array.size()) +
                      ") than controllers (" +
                      std::to_string(cfg.num_controllers) + ")");
    }
    std::vector<core::ControllerOverrides> ovs;
    for (const JsonValue& e : cm->value().array) {
      if (!e.is(JsonKind::kObject)) {
        throw ParseError(origin, e.line, e.column, "controllers",
                         "each entry is an object of engine overrides");
      }
      core::ControllerOverrides ov;
      ObjectReader(e, kControllerKeys, origin, "controller").read_bound(ov);
      ovs.push_back(ov);
    }
    cfg.controller_overrides = std::move(ovs);
  }
}

/// The fabric a scenario finally runs on: its mesh_preset re-tiling,
/// else its custom mesh or topology, else the paper app's mesh.
noc::NocConfig final_fabric(const core::SystemConfig& cfg) {
  if (cfg.mesh_preset.empty()) {
    return cfg.custom_app ? cfg.custom_app->noc
                          : traffic::build_application(cfg.app).noc;
  }
  noc::NocConfig noc;
  const bool ok = core::parse_mesh_preset(cfg.mesh_preset, &noc.width,
                                          &noc.height);
  ANNOC_ASSERT_MSG(ok, "mesh_preset is validated where it is read");
  return noc;
}

/// Why link fault `f` cannot run on the fabric laid out by `ports`, or
/// "" when it can: its endpoints, wrapped into the fabric the way
/// FaultSchedule::build wraps them, must be neighbours.
std::string unlinked_fault(const fault::FaultSpec& f,
                           const noc::TopologyPorts& ports) {
  const bool is_link = f.kind == fault::FaultKind::kDeadLink ||
                       f.kind == fault::FaultKind::kDegradedLink;
  const std::size_t n = ports.slots.size();
  const NodeId a = static_cast<NodeId>(f.a % n);
  const NodeId b = static_cast<NodeId>(f.b % n);
  if (!is_link || std::any_of(ports.slots[a].begin(), ports.slots[a].end(),
                              [&](const auto& s) { return s.nb == b; })) {
    return "";
  }
  std::string msg = "routers " + std::to_string(f.a) + " and " +
                    std::to_string(f.b);
  if (a != f.a || b != f.b) {
    msg += " (" + std::to_string(a) + " and " + std::to_string(b) +
           " modulo " + std::to_string(n) + ")";
  }
  return msg + " share no link on the " + std::to_string(n) +
         "-node fabric; a link fault names two neighbouring routers";
}

/// Parse the explicit `faults` array against the final fabric (`ports`
/// is its layout). Kind-specific nonsense — a link fault between routers
/// that share no link, a refresh storm without refresh — is rejected
/// here with a positioned message.
void parse_faults(const ObjectReader& top, const JsonMember& m,
                  core::SystemConfig& cfg, const noc::TopologyPorts& ports,
                  const std::string& origin) {
  if (!m.value().is(JsonKind::kArray)) {
    top.fail(m, "expected an array of fault objects");
  }
  std::vector<fault::FaultSpec> out;
  for (const JsonValue& e : m.value().array) {
    if (!e.is(JsonKind::kObject)) {
      throw ParseError(origin, e.line, e.column, "faults",
                       "each fault is an object (see docs/RESILIENCE.md)");
    }
    ObjectReader r(e, kFaultKeys, origin, "fault");
    fault::FaultSpec f;
    f.kind = r.token_of(r.require("kind"), fault::kFaultKindTokens);
    r.read_bound(f);
    if (f.until != 0 && f.until <= f.at) {
      r.fail(*r.find("until"),
             "until must be after at (or 0 for permanent)");
    }
    if (const JsonMember* bm = r.find("banks")) {
      if (!bm->value().is(JsonKind::kNumber)) {
        r.fail(*bm, "expected a number (bank bitmask, or -1 for all)");
      }
      const double v = bm->value().number;
      if (v == -1.0) {
        f.bank_mask = ~0ull;
      } else if (v < 1.0 || v != std::floor(v) || v > kMaxExactInt) {
        r.fail(*bm, "expected a bank bitmask >= 1, or -1 for every bank");
      } else {
        f.bank_mask = static_cast<std::uint64_t>(v);
      }
    }
    const bool is_link = f.kind == fault::FaultKind::kDeadLink ||
                         f.kind == fault::FaultKind::kDegradedLink;
    if (is_link && f.a == f.b) {
      throw ParseError(origin, e.line, e.column, "a",
                       "a link fault needs two distinct endpoint routers "
                       "(keys a and b)");
    }
    if (const std::string why = unlinked_fault(f, ports); !why.empty()) {
      throw ParseError(origin, e.line, e.column, "a", why);
    }
    if (f.kind == fault::FaultKind::kRefreshStorm) {
      if (f.trefi == 0) {
        throw ParseError(origin, e.line, e.column, "trefi",
                         "refresh_storm needs a nonzero trefi (the "
                         "tightened interval in cycles)");
      }
      if (!cfg.refresh) {
        throw ParseError(origin, e.line, e.column, "kind",
                         "refresh_storm needs refresh = true (there is no "
                         "refresh engine to storm)");
      }
    }
    if (f.kind == fault::FaultKind::kThrottledBanks && f.extra_trcd == 0 &&
        f.extra_trp == 0) {
      throw ParseError(origin, e.line, e.column, "extra_trcd",
                       "throttled_banks needs extra_trcd and/or extra_trp "
                       "> 0");
    }
    out.push_back(f);
  }
  cfg.faults = std::move(out);
}

// --- dump ---

/// Collects one object's `"key": value` lines and writes them in the
/// order of its KeyInfo table, whatever order they were added in.
class Dumper {
 public:
  Dumper(std::string indent, std::span<const KeyInfo> rows)
      : indent_(std::move(indent)), rows_(rows) {}

  /// A hand-written key.
  void field(std::string_view key, std::string value) {
    std::size_t i = 0;
    while (i < rows_.size() && key != rows_[i].key) ++i;
    ANNOC_ASSERT_MSG(i < rows_.size(), "dumped key has no schema row");
    add(i, std::move(value));
  }

  /// Every bound key of `target`; `variant` picks the rows a
  /// kind-specific row (Binding::variants) belongs to.
  void bound(const void* target, std::uint32_t variant = ~0u) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Binding& b = rows_[i].bind;
      const bool other_variant = b.variants != 0 && !(b.variants & variant);
      if (b.kind == Kind::kHand || other_variant) continue;
      std::string v = rows_[i].dump(target);
      if (!v.empty()) add(i, std::move(v));
    }
  }

  /// The object, its closing brace one level left of its keys.
  [[nodiscard]] std::string close() {
    std::stable_sort(
        entries_.begin(), entries_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += entries_[i].second;
      if (i + 1 < entries_.size()) out += ',';
      out += '\n';
    }
    return out + indent_.substr(2) + "}";
  }

 private:
  void add(std::size_t row, std::string value) {
    entries_.emplace_back(row, indent_ + json_quote(rows_[row].key) + ": " +
                                   std::move(value));
  }

  std::string indent_;
  std::span<const KeyInfo> rows_;
  std::vector<std::pair<std::size_t, std::string>> entries_;
};

/// A JSON array of item(e) for each element of `v`: on one line, or one
/// element per line at `indent` (closing one level further left).
template <class T, class F>
std::string list(const std::vector<T>& v, F item, std::string indent = "") {
  const std::string sep = indent.empty() ? ", " : ",\n" + indent;
  std::string out = indent.empty() ? "[" : "[\n" + indent;
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i != 0 ? sep : "") + item(v[i]);
  }
  return out + (indent.empty() ? "]" : "\n" + indent.substr(2) + "]");
}

std::string dump_core(const traffic::CorePlacement& cp) {
  const traffic::CoreSpec& s = cp.spec;
  Dumper d("      ", kCoreKeys);
  d.bound(&s);
  d.field("name", json_quote(s.name));
  d.field("node", std::to_string(cp.node));
  d.field("sizes", list(s.sizes, [](const traffic::SizeMix& m) {
            return "{\"bytes\": " + std::to_string(m.bytes) +
                   ", \"weight\": " + json_number(m.weight) + "}";
          }));
  d.field("region_base", std::to_string(s.region_base));
  return d.close();
}

}  // namespace

Scenario parse_scenario(std::string_view text, const std::string& origin,
                        const std::string& base_dir) {
  const JsonValue root = parse_json(text, origin);
  if (!root.is(JsonKind::kObject)) {
    throw ParseError(origin, root.line, root.column, "",
                     "a scenario file must be a JSON object");
  }
  ObjectReader r(root, kScenarioKeys, origin, "scenario");

  Scenario s;
  if (const JsonMember* m = r.find("name")) s.name = r.string_of(*m);
  core::SystemConfig& cfg = s.config;
  r.read_bound(cfg);
  check_channel_granule(r, cfg);

  const JsonMember* app_m = r.find("app");
  const JsonMember* mesh_m = r.find("mesh");
  const JsonMember* cores_m = r.find("cores");
  const JsonMember* topo_m = r.find("topology");
  const JsonMember* memory_m = r.find("memory");

  std::optional<noc::NocConfig> topo;
  if (topo_m != nullptr) {
    if (cores_m == nullptr) {
      r.fail(*topo_m, "topology needs a custom core set (cores) placed on "
                      "its named nodes; the paper applications are "
                      "mesh-defined");
    }
    if (mesh_m != nullptr) {
      r.fail(*mesh_m, "mesh and topology are mutually exclusive "
                      "(the topology defines the fabric)");
    }
    if (!cfg.mesh_preset.empty()) {
      r.fail(*r.find("mesh_preset"),
             "mesh_preset re-tiles a mesh; it cannot reshape a topology");
    }
    if (cfg.adaptive_routing) {
      r.fail(*r.find("adaptive_routing"),
             "adaptive routing is a mesh-geometry concept; topology mode "
             "routes by BFS next-hop tables");
    }
    topo = topo_m->value().is(JsonKind::kString)
               ? load_topology_file(r, *topo_m, base_dir)
               : parse_topology_object(topo_m->value(), origin);
  }

  if (cores_m != nullptr) {
    if (app_m != nullptr) {
      r.fail(*app_m, "app and cores are mutually exclusive "
                     "(a scenario is a paper app or a custom core set)");
    }
    if (!topo && mesh_m == nullptr) r.fail_missing("mesh");
    cfg.custom_app = build_custom_app(r, mesh_m, *cores_m,
                                      topo ? &*topo : nullptr, s.name, origin);
  } else {
    if (mesh_m != nullptr) {
      r.fail(*mesh_m, "mesh is only meaningful together with cores");
    }
    if (app_m != nullptr) cfg.app = r.token_of(*app_m, traffic::kAppTokens);
  }

  // The final fabric (after any mesh_preset re-tiling), for controller
  // placement and link-fault validation.
  const noc::TopologyPorts ports = noc::fabric_ports(final_fabric(cfg));
  const std::uint64_t fabric_nodes = ports.slots.size();

  if (memory_m != nullptr) {
    parse_memory(r, *memory_m, cfg, topo ? topo->topology.get() : nullptr,
                 fabric_nodes, origin);
  }
  if (cfg.num_controllers > fabric_nodes) {
    r.fail(*r.find("num_controllers"),
           "more controllers (" + std::to_string(cfg.num_controllers) +
               ") than fabric nodes (" + std::to_string(fabric_nodes) + ")");
  }
  if (const JsonMember* fm = r.find("faults")) {
    parse_faults(r, *fm, cfg, ports, origin);
  }
  return s;
}

bool is_sweepable_key(std::string_view key) {
  for (const KeyInfo& k : kScenarioKeys) {
    if (key == k.key) return k.bind.sweep;
  }
  return false;
}

void apply_overrides(core::SystemConfig& cfg, const JsonValue& point,
                     const std::string& origin) {
  if (!point.is(JsonKind::kObject)) {
    throw ParseError(origin, point.line, point.column, "",
                     "a sweep point must be a JSON object");
  }
  // ObjectReader first, so a typo'd key gets the standard "unknown
  // scenario key" diagnostic before the sweepability check below.
  ObjectReader r(point, kScenarioKeys, origin, "scenario");
  for (const JsonMember& m : point.object) {
    if (!is_sweepable_key(m.name)) {
      throw ParseError(origin, m.line, m.column, m.name,
                       "this key cannot be swept: workload structure "
                       "(name/mesh/cores) and output paths are fixed "
                       "for every job of a sweep");
    }
  }
  if (const JsonMember* m = r.find("app")) {
    if (cfg.custom_app) {
      r.fail(*m, "the base scenario defines a custom core set; "
                 "'app' cannot override it");
    }
    cfg.app = r.token_of(*m, traffic::kAppTokens);
  }
  r.read_bound(cfg);
  check_channel_granule(r, cfg);

  // Cross-field guards a sweep point can violate against its base
  // scenario. Any offending combination here involves a key the point
  // itself set (the base already validated its own), so the diagnostic
  // can always be positioned at a member of the point.
  const bool on_topology =
      cfg.custom_app && cfg.custom_app->noc.topology != nullptr;
  if (on_topology && !cfg.mesh_preset.empty()) {
    r.fail(*r.find("mesh_preset"),
           "mesh_preset re-tiles a mesh; the base scenario defines a "
           "topology");
  }
  if (on_topology && cfg.adaptive_routing) {
    r.fail(*r.find("adaptive_routing"),
           "adaptive routing is a mesh-geometry concept; the base "
           "scenario defines a topology");
  }
  if (!cfg.mem_nodes.empty() &&
      cfg.mem_nodes.size() != cfg.num_controllers) {
    r.fail(*r.find("num_controllers"),
           "num_controllers (" + std::to_string(cfg.num_controllers) +
               ") disagrees with the base scenario's memory.nodes (" +
               std::to_string(cfg.mem_nodes.size()) + " entries)");
  }
  // A point that re-tiles the fabric (mesh_preset, or the app's own
  // mesh) must still fit the base scenario's controllers and link faults.
  const JsonMember* retile = r.find("mesh_preset");
  if (retile == nullptr) retile = r.find("app");
  if (retile != nullptr && (!cfg.mem_nodes.empty() || !cfg.faults.empty())) {
    const noc::TopologyPorts ports = noc::fabric_ports(final_fabric(cfg));
    for (const NodeId n : cfg.mem_nodes) {
      if (n >= ports.slots.size()) {
        r.fail(*retile, "the base scenario places a controller on node " +
                            std::to_string(n) + ", outside the " +
                            std::to_string(ports.slots.size()) +
                            "-node fabric");
      }
    }
    for (const fault::FaultSpec& f : cfg.faults) {
      if (const std::string why = unlinked_fault(f, ports); !why.empty()) {
        r.fail(*retile, "the base scenario's link fault: " + why);
      }
    }
  }
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError(path, 0, 0, "", "cannot open scenario file");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Ship scenarios next to their referenced files: a relative topology
  // path (below) or replay path (here) is resolved against the
  // scenario file's own directory.
  const std::size_t dir_slash = path.find_last_of('/');
  const std::string base_dir =
      dir_slash == std::string::npos ? "" : path.substr(0, dir_slash);
  Scenario s = parse_scenario(buf.str(), path, base_dir);
  std::string& replay = s.config.replay_trace_path;
  if (!replay.empty() && replay.front() != '/') {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      replay = path.substr(0, slash + 1) + replay;
    }
  }
  return s;
}

std::string dump_scenario(const Scenario& s) {
  const core::SystemConfig& c = s.config;
  Dumper d("  ", kScenarioKeys);
  d.bound(&c);
  d.field("name", json_quote(s.name));
  if (!c.custom_app) {
    d.field("app", json_quote(traffic::kAppTokens.name(c.app)));
  }
  if (!c.faults.empty()) {
    d.field("faults", list(c.faults, [](const fault::FaultSpec& f) {
              Dumper fd("      ", kFaultKeys);
              fd.bound(&f, 1u << static_cast<unsigned>(f.kind));
              fd.field("kind", json_quote(to_string(f.kind)));
              if (f.kind == fault::FaultKind::kThrottledBanks) {
                fd.field("banks", f.bank_mask == ~0ull
                                      ? std::string("-1")
                                      : std::to_string(f.bank_mask));
              }
              return fd.close();
            }, "    "));
  }
  if (c.custom_app && c.custom_app->noc.topology) {
    const noc::TopologySpec& t = *c.custom_app->noc.topology;
    const auto name = [&](NodeId n) { return json_quote(t.node_names[n]); };
    Dumper td("    ", kTopologyKeys);
    td.bound(&c.custom_app->noc);
    td.field("nodes", list(t.node_names, json_quote));
    td.field("links", list(t.links, [&](const noc::TopologySpec::Edge& e) {
               return "[" + name(e.a) + ", " + name(e.b) + "]";
             }));
    d.field("topology", td.close());
  }
  if (!c.mem_nodes.empty() || !c.controller_overrides.empty()) {
    Dumper md("    ", kMemoryKeys);
    if (!c.mem_nodes.empty()) {
      md.field("nodes", list(c.mem_nodes,
                             [](NodeId n) { return std::to_string(n); }));
    }
    if (!c.controller_overrides.empty()) {
      md.field("controllers",
               list(c.controller_overrides,
                    [](const core::ControllerOverrides& ov) {
                      Dumper od("        ", kControllerKeys);
                      od.bound(&ov);
                      return od.close();
                    }, "      "));
    }
    d.field("memory", md.close());
  }
  if (c.custom_app) {
    const traffic::Application& app = *c.custom_app;
    if (!app.noc.topology) {
      Dumper m("    ", kMeshKeys);
      m.bound(&app.noc);
      d.field("mesh", m.close());
    }
    d.field("cores", list(app.cores, dump_core, "    "));
  }
  return d.close() + "\n";
}

}  // namespace annoc::scenario

#include "obs/run_manifest.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "util/artifact.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/text.hpp"

namespace wss::obs {

namespace {

using util::jsonEscape;
using util::jsonNumber;
using util::hexString;

std::uint64_t
parseHex(const std::string &text, std::string_view what)
{
    std::size_t used = 0;
    std::uint64_t value = 0;
    try {
        value = std::stoull(text, &used, 16);
    } catch (const std::exception &) {
        fatal(what, ": bad hash string '", text, "'");
    }
    if (used != text.size())
        fatal(what, ": bad hash string '", text, "'");
    return value;
}

/// The identity section, shared verbatim between identityJson() and
/// writeJson() so the hash always covers exactly what the file says.
void
writeIdentityMembers(std::ostream &os, const std::string &tool,
                     const std::map<std::string, std::string> &config,
                     std::uint64_t seed, int jobs,
                     std::vector<ManifestArtifact> artifacts,
                     bool with_paths)
{
    os << "\"tool\": \"" << jsonEscape(tool) << "\",\n"
       << "  \"seed\": \"" << seed << "\",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"config\": {";
    bool first = true;
    for (const auto &[key, value] : config) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(key)
           << "\": \"" << jsonEscape(value) << "\"";
        first = false;
    }
    os << (first ? "}" : "\n  }") << ",\n  \"artifacts\": [";
    // Identity must not depend on the order artifacts were recorded
    // in (parallel writers) nor on where they live on disk.
    // A timed artifact's bytes and hash vary between identical runs,
    // so the identity keeps only its kind (and sorts it by kind
    // alone); the file keeps all three for `wss report`.
    if (!with_paths)
        for (ManifestArtifact &a : artifacts)
            if (a.timed)
                a.bytes = a.hash = 0;
    std::sort(artifacts.begin(), artifacts.end(),
              [](const ManifestArtifact &a, const ManifestArtifact &b) {
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.hash != b.hash)
                      return a.hash < b.hash;
                  return a.bytes < b.bytes;
              });
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
        const ManifestArtifact &a = artifacts[i];
        os << (i ? ",\n" : "\n") << "    {";
        if (with_paths)
            os << "\"path\": \"" << jsonEscape(a.path) << "\", ";
        os << "\"kind\": \"" << jsonEscape(a.kind) << "\"";
        if (with_paths || !a.timed)
            os << ", \"bytes\": " << a.bytes << ", \"hash\": \""
               << hexString(a.hash) << "\"";
        if (a.timed)
            os << ", \"timed\": true";
        os << "}";
    }
    os << (artifacts.empty() ? "]" : "\n  ]");
}

} // namespace

RunManifest::RunManifest(std::string tool) : tool_(std::move(tool))
{
#ifdef NDEBUG
    config_["build.mode"] = "release";
#else
    config_["build.mode"] = "debug";
#endif
#ifdef __VERSION__
    config_["build.compiler"] = __VERSION__;
#endif
}

void
RunManifest::setConfig(const std::string &key, std::string value)
{
    config_[key] = std::move(value);
}

void
RunManifest::setConfig(const std::string &key, std::int64_t value)
{
    config_[key] = std::to_string(value);
}

void
RunManifest::setConfig(const std::string &key, double value)
{
    config_[key] = jsonNumber(value);
}

void
RunManifest::setSeed(std::uint64_t seed)
{
    seed_ = seed;
}

void
RunManifest::setJobs(int jobs)
{
    jobs_ = jobs;
}

void
RunManifest::addArtifact(const std::string &path, std::string kind,
                         bool timed)
{
    const std::optional<std::string> content = util::readArtifactFile(path);
    if (!content)
        fatal("RunManifest: cannot read artifact '", path,
              "' for hashing (was it written?)");

    ManifestArtifact artifact;
    artifact.path = path;
    artifact.kind = std::move(kind);
    artifact.bytes = content->size();
    artifact.hash = hashBytes(*content);
    artifact.timed = timed;
    artifacts_.push_back(std::move(artifact));
}

void
RunManifest::addPhaseSeconds(const std::string &path, double seconds,
                             std::int64_t calls)
{
    phases_.push_back({path, calls, seconds});
}

void
RunManifest::setProfile(const Profiler &profiler)
{
    phases_.clear();
    for (const auto &[path, stats] : profiler.phases())
        phases_.push_back({path, stats.calls, stats.seconds});
}

std::string
RunManifest::identityJson() const
{
    std::ostringstream os;
    os << "{\"wss_run_manifest_identity\": 1,\n  ";
    writeIdentityMembers(os, tool_, config_, seed_, jobs_, artifacts_,
                         /*with_paths=*/false);
    os << "\n}\n";
    return os.str();
}

std::uint64_t
RunManifest::identityHash() const
{
    return hashBytes(identityJson());
}

void
RunManifest::writeJson(std::ostream &os) const
{
    os << "{\n  \"wss_run_manifest\": 1,\n  ";
    writeIdentityMembers(os, tool_, config_, seed_, jobs_, artifacts_,
                         /*with_paths=*/true);
    os << ",\n  \"identity_hash\": \"" << hexString(identityHash())
       << "\",\n  \"timing\": {\n    \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
        const ManifestPhase &p = phases_[i];
        os << (i ? ",\n" : "\n") << "      {\"path\": \""
           << jsonEscape(p.path) << "\", \"calls\": " << p.calls
           << ", \"seconds\": " << jsonNumber(p.seconds) << "}";
    }
    os << (phases_.empty() ? "]" : "\n    ]") << "\n  }\n}\n";
}

void
RunManifest::writeJsonFile(const std::string &path) const
{
    util::writeArtifactFile(path, "RunManifest",
                            [this](std::ostream &os) { writeJson(os); });
}

RunManifest
RunManifest::loadJsonFile(const std::string &path)
{
    const std::string what = "run manifest '" + path + "'";
    const util::JsonValue doc = util::JsonValue::parseFile(path, what);
    if (!doc.find("wss_run_manifest"))
        fatal(what, ": not a wss run manifest (missing version "
                    "marker)");

    RunManifest manifest(doc.require("tool", what).asString(what));
    manifest.config_.clear(); // loaded, not rebuilt: file wins
    for (const auto &[key, value] :
         doc.require("config", what).asObject(what))
        manifest.config_[key] = value.asString(what);

    const std::string seed_text =
        doc.require("seed", what).asString(what);
    try {
        std::size_t used = 0;
        manifest.seed_ = std::stoull(seed_text, &used, 10);
        if (used != seed_text.size())
            throw std::invalid_argument(seed_text);
    } catch (const std::exception &) {
        fatal(what, ": bad seed '", seed_text, "'");
    }
    manifest.jobs_ =
        static_cast<int>(doc.require("jobs", what).asNumber(what));

    for (const util::JsonValue &entry :
         doc.require("artifacts", what).asArray(what)) {
        ManifestArtifact artifact;
        artifact.path = entry.require("path", what).asString(what);
        artifact.kind = entry.require("kind", what).asString(what);
        artifact.bytes = static_cast<std::uint64_t>(
            entry.require("bytes", what).asNumber(what));
        artifact.hash =
            parseHex(entry.require("hash", what).asString(what), what);
        if (const util::JsonValue *timed = entry.find("timed"))
            artifact.timed = timed->asBool(what);
        manifest.artifacts_.push_back(std::move(artifact));
    }

    if (const util::JsonValue *timing = doc.find("timing")) {
        if (const util::JsonValue *phases = timing->find("phases")) {
            for (const util::JsonValue &entry :
                 phases->asArray(what)) {
                ManifestPhase phase;
                phase.path =
                    entry.require("path", what).asString(what);
                phase.calls = static_cast<std::int64_t>(
                    entry.require("calls", what).asNumber(what));
                phase.seconds =
                    entry.require("seconds", what).asNumber(what);
                manifest.phases_.push_back(std::move(phase));
            }
        }
    }
    return manifest;
}

std::uint64_t
RunManifest::hashBytes(std::string_view data)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace wss::obs

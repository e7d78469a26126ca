/**
 * @file
 * Behaviour digest: FNV-1a 64 over the raw bytes of every simulated
 * result field, in a fixed order. Two runs that simulate the same
 * thing produce the same digest; host timings never enter it.
 */

#ifndef PERFBENCH_DIGEST_HPP
#define PERFBENCH_DIGEST_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "obs/run_manifest.hpp"

namespace perfbench {

class Digest
{
  public:
    void
    add(double v)
    {
        addRaw(&v, sizeof v);
    }
    void
    add(std::int64_t v)
    {
        addRaw(&v, sizeof v);
    }
    void
    add(bool v)
    {
        add(static_cast<std::int64_t>(v));
    }
    void
    add(std::string_view s)
    {
        add(static_cast<std::int64_t>(s.size()));
        bytes_.append(s);
    }

    /// FNV-1a 64 of everything added so far (the hash wss manifests
    /// use for artifact content).
    std::uint64_t
    value() const
    {
        return wss::obs::RunManifest::hashBytes(bytes_);
    }

  private:
    void
    addRaw(const void *p, std::size_t n)
    {
        char buf[sizeof(std::int64_t)];
        std::memcpy(buf, p, n);
        bytes_.append(buf, n);
    }

    std::string bytes_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HPP

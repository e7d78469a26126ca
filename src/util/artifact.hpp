/**
 * @file
 * Flush-checked artifact file writing, and the matching whole-file
 * read.
 *
 * fatal() terminates via exit(1) without unwinding the stack, so an
 * `std::ofstream` open in an enclosing scope never runs its
 * destructor and silently drops buffered data — the classic way a
 * campaign dies mid-run and leaves a truncated CSV that *looks*
 * complete. writeArtifactFile() closes the sandwich: open, write,
 * flush, close, and only then check the stream — any failure is a
 * fatal() *after* the data that could be saved has been saved.
 */

#ifndef WSS_UTIL_ARTIFACT_HPP
#define WSS_UTIL_ARTIFACT_HPP

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "util/logging.hpp"

namespace wss::util {

/**
 * Open @p path, run @p writer on the stream, then flush, close and
 * verify. fatal() with @p what in the message if the file cannot be
 * opened or any write failed.
 */
template <typename Writer>
void
writeArtifactFile(const std::string &path, std::string_view what,
                  Writer &&writer)
{
    std::ofstream os(path);
    if (!os)
        fatal(what, ": cannot open '", path, "' for writing");
    writer(os);
    os.flush();
    const bool ok = os.good();
    os.close();
    if (!ok || !os)
        fatal(what, ": error writing '", path, "' (disk full?)");
    detail::notifyLogEvent(detail::LogEvent::Artifact, path.c_str());
}

/// Whole (binary) content of @p path; nullopt when it cannot be
/// opened. Callers decide whether a missing file is fatal.
inline std::optional<std::string>
readArtifactFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

} // namespace wss::util

#endif // WSS_UTIL_ARTIFACT_HPP

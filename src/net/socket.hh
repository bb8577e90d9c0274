/**
 * @file
 * Minimal socket plumbing for the dispatch daemon and worker.
 *
 * One address grammar serves both transports:
 *
 *   unix:/path/to/socket   AF_UNIX stream socket (single-host runs,
 *                          tests, CI — no port allocation races)
 *   host:port              AF_INET TCP (cluster runs); host may be a
 *                          name or dotted quad, port 0 lets the
 *                          kernel pick (boundPort() reports it)
 *
 * Everything here is deliberately thin: fd-returning free functions,
 * fatal() on programmer/configuration errors, -1 + errno on the
 * runtime failures the caller retries (connect refused, accept
 * would-block). The daemon runs its own poll() loop; nothing in this
 * file owns an event model.
 */

#ifndef MARVEL_NET_SOCKET_HH
#define MARVEL_NET_SOCKET_HH

#include <string>

#include "common/types.hh"

namespace marvel::net
{

/** A parsed dispatch address. */
struct Endpoint
{
    bool isUnix = false;
    std::string path; ///< unix: socket path
    std::string host; ///< tcp: host name / address
    u16 port = 0;     ///< tcp: port (0 = kernel-assigned)

    /** Render back to the grammar above (for logs). */
    std::string str() const;
};

/**
 * Parse "unix:/path" or "host:port". fatal() on a malformed spec —
 * addresses come from the command line, and a bad one should stop
 * the tool with a message, not limp into connect errors.
 */
Endpoint parseEndpoint(const std::string &spec);

/**
 * Create, bind and listen on `endpoint`; returns the listening fd
 * (non-blocking, SO_REUSEADDR for TCP; a stale unix socket file is
 * unlinked first). fatal() on failure.
 */
int listenOn(const Endpoint &endpoint);

/** The locally bound TCP port of a listening fd (after port 0). */
u16 boundPort(int listenFd);

/**
 * Blocking connect to `endpoint`. Returns the connected fd, or -1
 * with errno set (the worker's backoff loop handles retries).
 */
int connectTo(const Endpoint &endpoint);

/** Accept one connection; -1 when none is pending (EAGAIN). The
 *  returned fd is made non-blocking. */
int acceptOn(int listenFd);

/** Switch an fd to non-blocking mode. fatal() on failure. */
void setNonBlocking(int fd);

/**
 * Write all of `data` to a BLOCKING fd, riding out EINTR and partial
 * writes. Returns false on connection loss (EPIPE & friends).
 */
bool sendAll(int fd, const std::string &data);

/**
 * Read some bytes from a BLOCKING fd into `out` (appending). Returns
 * the byte count, 0 on orderly close, -1 on error. Retries EINTR.
 * With `wait` false, reads only what is already buffered (-1 with
 * EAGAIN when nothing is).
 */
long recvSome(int fd, std::string &out, bool wait = true);

} // namespace marvel::net

#endif // MARVEL_NET_SOCKET_HH

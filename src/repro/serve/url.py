"""Store URLs: one string that names any store, local or remote.

Everywhere the harness accepts a store — ``RunConfig.from_url``, the
``--store`` flag of ``examples/reproduce_tables.py`` — the value is a
*store URL*:

* a plain path (``runs/store``, ``/var/repro/store``) opens a local
  :class:`~repro.persist.RunStore` on that directory, exactly as before;
* ``tcp://host:port`` (or ``repro+tcp://``) connects a
  :class:`~repro.serve.client.RemoteRunStore` to a TCP server; an IPv6
  host is written in brackets, ``tcp://[::1]:9045``;
* ``unix:///path/to.sock`` (or ``repro+unix://``) connects over a unix
  socket on the same machine — same protocol, no TCP stack.

A URL names exactly one store: a comma-separated list is refused.

The ``repro+`` prefix exists for contexts that key behaviour off the
scheme and want it unambiguous; the short forms are canonical.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StoreError

#: schemes that open a RemoteRunStore; anything else is a local path
REMOTE_SCHEMES = ("tcp", "repro+tcp", "unix", "repro+unix")


def split_host_port(value: str) -> tuple[str, int] | None:
    """``(host, port)`` of ``host:port`` or ``[ipv6]:port``; None if malformed.

    Brackets around an IPv6 host are stripped, so the host goes to
    ``getaddrinfo`` as-is; :func:`url_host` puts them back.  The port is
    ASCII digits in 0..65535; an IPv6 host without brackets, stray or
    empty brackets are malformed (each would fail later, at connect).
    """
    host, colon, port = value.rpartition(":")
    if not colon or not (port.isascii() and port.isdigit()):
        return None
    if int(port) > 65535:
        return None
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            return None
    elif ":" in host:
        return None
    if "[" in host or "]" in host:
        return None
    return host, int(port)


def url_host(host: str) -> str:
    """``host`` as written in a URL: an IPv6 address gets its brackets."""
    return f"[{host}]" if ":" in host else host


def parse_store_url(url: str) -> tuple[str, Any]:
    """``("local", path)``, ``("tcp", (host, port))`` or ``("unix", path)``."""
    scheme, sep, rest = url.partition("://")
    if not sep:
        return ("local", url)
    if "," in url:
        raise StoreError(
            f"malformed store URL {url!r}: name one store, not a "
            f"comma-separated list"
        )
    scheme = scheme.lower()
    if scheme in ("tcp", "repro+tcp"):
        host_port = split_host_port(rest.rstrip("/"))
        if host_port is None:
            raise StoreError(
                f"malformed store URL {url!r}: expected tcp://host:port"
            )
        return ("tcp", host_port)
    if scheme in ("unix", "repro+unix"):
        if not rest:
            raise StoreError(
                f"malformed store URL {url!r}: expected unix:///path/to.sock"
            )
        return ("unix", rest)
    raise StoreError(
        f"unknown store URL scheme {scheme!r} in {url!r}; "
        f"use a local path or one of {REMOTE_SCHEMES}"
    )


def open_store(url: str, **client_options: Any):
    """Open the store a URL names: local ``RunStore`` or ``RemoteRunStore``.

    ``client_options`` (``retry``, ``pool_size``) apply to remote URLs
    only; passing them with a local path is an error rather than a
    silent no-op.
    """
    family, target = parse_store_url(url)
    if family == "local":
        if client_options:
            raise StoreError(
                f"client options {sorted(client_options)} are meaningless "
                f"for local store path {url!r}"
            )
        from repro.persist import RunStore

        return RunStore(target)
    from repro.serve.client import RemoteRunStore

    return RemoteRunStore(url, (family, target), **client_options)

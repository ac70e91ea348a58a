"""Host addressing and the capability handshake contract.

A :class:`HostSpec` names one remote ``repro serve --tcp`` instance.
``REPRO_HOSTS`` (and ``repro sweep --hosts``) is a comma-separated list
of ``host:port`` entries — :func:`parse_hosts` is its one parser.

:func:`local_capabilities` is what a host answers to the ``hello``
handshake and what a coordinator demands of every host before
dispatching work: protocol version, workload-code and model-code
versions and the lake cell format must all match, because a host
running different workload code would compute *different traces* for
the same cell, a host running a different timing model would compute
different stats that no digest check can tell from the right ones, and
a different cell format could never warm the coordinator's lake.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.framing import PROTOCOL_VERSION


@dataclass(frozen=True)
class HostSpec:
    """One remote host: where to dial it."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("a host needs a non-empty name/address")
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port {self.port} outside 0..65535")

    @classmethod
    def parse(cls, text: str) -> "HostSpec":
        """``"host:port"`` (IPv6 literals in brackets: ``[::1]:9091``)."""
        text = text.strip()
        host, sep, port_text = text.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"host entry {text!r} is not host:port "
                "(e.g. 127.0.0.1:9091)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"host entry {text!r} has a non-numeric port"
            ) from None
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        return cls(host=host, port=port)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def label(self) -> str:
        """Render for logs/reports (round-trips through :meth:`parse`)."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{host}:{self.port}"


def parse_hosts(text: str | None) -> tuple[HostSpec, ...]:
    """The ``REPRO_HOSTS`` / ``--hosts`` grammar: comma-separated
    ``host:port`` entries; duplicates are rejected (one pool slot per
    host — dispatch balance would silently skew otherwise)."""
    if text is None or not text.strip():
        return ()
    specs: list[HostSpec] = []
    for entry in text.split(","):
        if not entry.strip():
            continue
        spec = HostSpec.parse(entry)
        if spec in specs:
            raise ValueError(f"duplicate host entry {spec.label}")
        specs.append(spec)
    if not specs:
        raise ValueError(f"host list {text!r} names no hosts")
    return tuple(specs)


def local_capabilities() -> dict:
    """What this build answers to (and demands from) the handshake."""
    from repro.workloads.store import (
        CELL_FORMAT,
        model_code_version,
        workload_code_version,
    )

    return {
        "protocol": PROTOCOL_VERSION,
        "workload_version": workload_code_version(),
        "model_version": model_code_version(),
        "cell_format": CELL_FORMAT,
    }


def capability_mismatch(theirs: dict) -> str | None:
    """Why *theirs* is incompatible with this build (``None`` = it is
    compatible).  Unknown extra keys are ignored — forward compatible —
    but every local capability must be present and equal."""
    if not isinstance(theirs, dict):
        return "handshake carried no capability object"
    for key, value in local_capabilities().items():
        remote = theirs.get(key)
        if remote != value:
            return (
                f"{key} mismatch (host {remote!r}, coordinator {value!r})"
            )
    return None

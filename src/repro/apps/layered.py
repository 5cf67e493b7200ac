"""Streaming layered audio/video server (§3.4, Figures 8-10).

The server encodes its stream in a small number of discrete layers, each
with a nominal transmission rate, and adapts which layer it sends based on
what the CM tells it about the path.  Two adaptation styles from the paper
are implemented, selected with ``mode``:

``"alf"``
    The ALF / request-callback style (Figure 8).  The server never runs a
    timer of its own: it keeps a few ``cm_request`` calls outstanding and
    transmits a packet whenever the CM grants one, choosing the layer from
    ``cm_query`` at that moment.  This sends "packets as rapidly as possible
    to allow its client to buffer more data" and reacts to every small rate
    change.

``"rate"``
    The rate-callback style (Figure 9).  The server runs its own clocked
    send loop at the current layer's nominal rate and only changes layer
    when the CM's ``cmapp_update`` callback (armed with ``cm_thresh``) tells
    it that conditions changed by more than the configured factors.

Both styles are user-space applications: they talk to the CM through
:class:`~repro.core.libcm.LibCM` and provide their own feedback by
processing the receiver's application-level acknowledgements
(:class:`~repro.transport.udp.feedback.AckReflector`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.libcm import LibCM
from ..core.query import QueryResult
from ..netsim.node import Host
from ..netsim.packet import Packet
from ..telemetry.recorders import FixedBinAccumulator
from ..transport.udp.feedback import AppFeedbackTracker
from ..transport.udp.socket import UDPSocket

__all__ = ["LayeredStreamingServer", "DEFAULT_LAYER_RATES"]

#: Default layer rates in bytes/second (doubling layers, topping out around
#: the 2 MB/s the paper's vBNS path sustained in Figures 8/9).
DEFAULT_LAYER_RATES = (125_000, 250_000, 500_000, 1_000_000, 2_000_000)


class LayeredStreamingServer:
    """Adaptive layered media server transmitting to a single client."""

    def __init__(
        self,
        host: Host,
        client_addr: str,
        client_port: int,
        mode: str = "alf",
        layer_rates: Sequence[float] = DEFAULT_LAYER_RATES,
        packet_payload: int = 1000,
        libcm: Optional[LibCM] = None,
        thresh_down: float = 1.5,
        thresh_up: float = 1.5,
        pipeline_requests: int = 4,
        headroom: float = 1.0,
        rate_bin: float = 0.5,
    ):
        if mode not in ("alf", "rate"):
            raise ValueError(f"unknown adaptation mode {mode!r}")
        if not layer_rates:
            raise ValueError("need at least one layer")
        self.host = host
        self.sim = host.sim
        self.mode = mode
        self.layer_rates = sorted(float(r) for r in layer_rates)
        self.packet_payload = packet_payload
        self.pipeline_requests = pipeline_requests
        self.headroom = headroom

        self.libcm = libcm or LibCM(host)
        self.socket = UDPSocket(host)
        self.socket.connect(client_addr, client_port)
        self.socket.on_receive = self._handle_ack

        self.flow_id = self.libcm.cm_open(
            host.addr, client_addr, self.socket.local_port, client_port, "udp"
        )
        self.libcm.cm_register_send(self.flow_id, self._cmapp_send)
        self.libcm.cm_register_update(self.flow_id, self._cmapp_update)
        self.libcm.cm_thresh(self.flow_id, thresh_down, thresh_up)

        self.tracker = AppFeedbackTracker()
        self.current_layer = 0
        self._seq = 0
        self._running = False
        self._send_event = None
        self._requests_outstanding = 0

        # Instrumentation for Figures 8-10: transmitted bytes in fixed-width
        # time bins.  65,536 bins at the default 0.5 s width cover over nine
        # simulated hours, far past any experiment's horizon.
        self.tx_rate = FixedBinAccumulator(bin_width=rate_bin, max_bins=65_536)
        self.reported_rates: List[Tuple[float, float]] = []
        self.layer_history: List[Tuple[float, int]] = []
        self.packets_sent = 0
        self.bytes_sent = 0
        # Telemetry probe slot (repro.telemetry); None = compiled no-op.
        self._probe_chunk = None

    def attach_telemetry(self, hub) -> None:
        """Bind the ``app.chunk`` probe to a telemetry hub."""
        self._probe_chunk = hub.probe("app.chunk")

    # ====================================================================== #
    # Control                                                                #
    # ====================================================================== #
    def start(self) -> None:
        """Begin streaming (idempotent)."""
        if self._running:
            return
        self._running = True
        self.layer_history.append((self.sim.now, self.current_layer))
        if self.mode == "alf":
            self._top_up_requests()
        else:
            self._schedule_next_clocked_send()

    def stop(self) -> None:
        """Stop streaming and close the CM flow."""
        if not self._running:
            return
        self._running = False
        if self._send_event is not None:
            if self._send_event.pending:
                self._send_event.cancel()
            self._send_event = None

    @property
    def current_rate(self) -> float:
        """Nominal rate (bytes/s) of the layer currently being sent."""
        return self.layer_rates[self.current_layer]

    def layer_for_rate(self, rate: float) -> int:
        """Highest layer whose nominal rate fits under ``rate`` (with headroom)."""
        usable = rate * self.headroom
        chosen = 0
        for index, layer_rate in enumerate(self.layer_rates):
            if layer_rate <= usable:
                chosen = index
        return chosen

    # ====================================================================== #
    # ALF (request/callback) mode                                            #
    # ====================================================================== #
    def _top_up_requests(self) -> None:
        if not self._running:
            return
        while self._requests_outstanding < self.pipeline_requests:
            self._requests_outstanding += 1
            self.libcm.cm_request(self.flow_id)

    def _cmapp_send(self, flow_id: int) -> None:
        self._requests_outstanding = max(0, self._requests_outstanding - 1)
        if not self._running:
            self.libcm.cm_notify(flow_id, 0)
            return
        # Last-minute adaptation: pick the layer from the CM's current view.
        status = self.libcm.cm_query(flow_id)
        self.reported_rates.append((self.sim.now, status.rate))
        self._select_layer(status.rate)
        self._transmit_packet()
        if self.mode == "alf":
            self._top_up_requests()

    # ====================================================================== #
    # Rate-callback (clocked) mode                                           #
    # ====================================================================== #
    def _schedule_next_clocked_send(self) -> None:
        if not self._running:
            return
        interval = self.packet_payload / self.current_rate
        self._send_event = self.sim.schedule(interval, self._clocked_send)

    def _clocked_send(self) -> None:
        if not self._running:
            return
        self._transmit_packet()
        self._schedule_next_clocked_send()

    def _cmapp_update(self, flow_id: int, status: QueryResult) -> None:
        """Rate callback: the CM says conditions changed past the thresholds."""
        self.reported_rates.append((self.sim.now, status.rate))
        if self.mode == "rate":
            self._select_layer(status.rate)

    # ====================================================================== #
    # Common transmit / feedback paths                                       #
    # ====================================================================== #
    def _select_layer(self, rate: float) -> None:
        layer = self.layer_for_rate(rate)
        if layer != self.current_layer:
            self.current_layer = layer
            self.layer_history.append((self.sim.now, layer))

    def _transmit_packet(self) -> None:
        seq = self._seq
        self._seq += 1
        self.socket.send(
            self.packet_payload,
            headers={"seq": seq, "ts": self.sim.now, "layer": self.current_layer},
        )
        self.tracker.on_sent(seq, self.packet_payload)
        self.tx_rate.add(self.sim.now, self.packet_payload)
        self.packets_sent += 1
        self.bytes_sent += self.packet_payload
        probe = self._probe_chunk
        if probe is not None:
            probe(self.sim.now, {"seq": seq, "layer": self.current_layer,
                                 "size": self.packet_payload})
        if self.mode == "rate":
            # The clocked sender's transmissions are not matched to explicit
            # grants, so report them so the CM can charge the macroflow (the
            # kernel hook already does this for connected sockets; an
            # explicit cm_notify is *not* needed here).
            pass

    def _handle_ack(self, packet: Packet) -> None:
        headers = packet.headers
        now = self.sim.now
        # Applications computing their own RTT pay two gettimeofday calls
        # (one at send, one at ACK processing) — Table 1.
        if self.host.costs is not None:
            self.host.costs.charge_operation("gettimeofday", count=2, category="app")
        if "acked_packets" in headers and headers.get("acked_packets", 0) > 1:
            report = self.tracker.on_cumulative_ack(
                headers["acked_packets"],
                headers["acked_bytes"],
                headers.get("ts_echo"),
                now,
                highest_seq=headers.get("ack_seq"),
            )
        else:
            report = self.tracker.on_ack(headers.get("ack_seq"), headers.get("ts_echo"), now)
        if report is None:
            return
        self.libcm.cm_update(self.flow_id, report.nsent, report.nrecd, report.lossmode, report.rtt)

    # ====================================================================== #
    # Results                                                                #
    # ====================================================================== #
    def transmission_series(self) -> List[Tuple[float, float]]:
        """(time, transmission rate in bytes/s) series for plotting.

        Empty bins between the first and last transmission report zero, so
        plots show stalls rather than interpolating over them.
        """
        width = self.tx_rate.bin_width
        return [(start, total / width) for start, total in self.tx_rate.bin_series()]

    def reported_rate_series(self) -> List[Tuple[float, float]]:
        """(time, CM-reported rate in bytes/s) series for plotting."""
        return list(self.reported_rates)

    def layers_sent(self) -> List[int]:
        """Sequence of layer indices over time (one entry per switch)."""
        return [layer for _t, layer in self.layer_history]

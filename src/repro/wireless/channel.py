"""Channel configuration for the wireless medium."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class ChannelConfig:
    """Parameters of the shared wireless channel.

    Defaults follow the paper's simulation setup: IEEE 802.11b at 11 Mb/s,
    10 % loss rate and a WiFi range swept from 20 m to 100 m.

    Attributes
    ----------
    data_rate_bps:
        Channel bit rate in bits per second.
    wifi_range:
        Communication range in metres (unit-disk model).
    loss_rate:
        Independent probability that a frame is lost at a given receiver,
        applied after collision detection.
    per_frame_overhead_s:
        Fixed per-frame airtime overhead approximating the 802.11b PLCP
        preamble/header and MAC framing.
    index_cell_size:
        Grid cell edge in metres (``None`` means use :meth:`max_range`).
    index_rebuild_interval:
        Validity window of one grid snapshot in simulated seconds.
    propagation:
        Radio propagation backend (see :mod:`repro.wireless.propagation`):
        ``"unit_disk"`` (the seed physics, the default), ``"log_distance"``
        (distance-dependent loss with deterministic shadowing) or
        ``"obstacle"`` (line-of-sight occlusion against an environment).
    propagation_params:
        Model-specific parameters, validated against the selected backend's
        declared parameter set (unknown keys or out-of-range values raise).
    unicast_retry_limit:
        802.11-style link-layer ARQ retry ceiling for unicast frames (a
        config field so fault specs can sweep it without perturbing every
        other run).
    unicast_retry_backoff:
        Base ARQ retransmission backoff in seconds; the k-th retry waits
        ``k * unicast_retry_backoff`` plus a small random jitter.
    inter_frame_space:
        Gap between back-to-back frames of one sender in seconds,
        approximating DIFS + MAC processing.
    """

    data_rate_bps: float = 11_000_000.0
    wifi_range: float = 60.0
    loss_rate: float = 0.10
    per_frame_overhead_s: float = 0.000192
    index_cell_size: Optional[float] = None
    index_rebuild_interval: float = 1.0
    propagation: str = "unit_disk"
    propagation_params: Dict[str, object] = field(default_factory=dict)
    unicast_retry_limit: int = 3
    unicast_retry_backoff: float = 0.002
    inter_frame_space: float = 0.00005

    def __post_init__(self) -> None:
        # A string fails the bounds below with a TypeError, NaN compares false
        # against every bound and inf passes the positive ones, so non-numbers
        # and non-finite numbers are rejected by name first.
        for name in (
            "data_rate_bps", "wifi_range", "loss_rate", "per_frame_overhead_s", "index_cell_size",
            "index_rebuild_interval", "unicast_retry_backoff", "inter_frame_space",
        ):
            value = getattr(self, name)
            if value is None:
                continue
            try:
                finite = math.isfinite(value)
            except TypeError:
                raise ValueError(f"{name} must be a number, got {value!r}") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be positive")
        if self.wifi_range <= 0:
            raise ValueError("wifi_range must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.per_frame_overhead_s < 0:
            raise ValueError("per_frame_overhead_s must be non-negative")
        if self.index_cell_size is not None and self.index_cell_size <= 0:
            raise ValueError("index_cell_size must be positive")
        if self.index_rebuild_interval <= 0:
            raise ValueError("index_rebuild_interval must be positive")
        if not isinstance(self.unicast_retry_limit, int) or self.unicast_retry_limit < 0:
            raise ValueError("unicast_retry_limit must be a non-negative integer")
        if self.unicast_retry_backoff < 0:
            raise ValueError("unicast_retry_backoff must be non-negative")
        if self.inter_frame_space < 0:
            raise ValueError("inter_frame_space must be non-negative")
        # Validate the propagation selection eagerly so misconfigured sweeps
        # fail at config construction, not mid-trial in a pool worker.
        from repro.wireless.propagation import validate_propagation

        validate_propagation(self.propagation, self.propagation_params)
        if self.index_cell_size is not None and self.index_cell_size < self.max_range() / 8:
            # A cell far smaller than the true reach makes every query scan
            # hundreds of cells; treat it as a configuration error rather
            # than a silent performance cliff.
            raise ValueError(
                f"index_cell_size={self.index_cell_size} is inconsistent with the "
                f"propagation model's max range {self.max_range():.1f} "
                f"(cells must be at least max_range/8)"
            )

    def airtime(self, size_bytes: int) -> float:
        """Airtime in seconds for a frame of ``size_bytes``."""
        return self.per_frame_overhead_s + (size_bytes * 8) / self.data_rate_bps

    def max_range(self, nominal_range: Optional[float] = None) -> float:
        """True maximum link reach under the configured propagation model.

        This — not ``wifi_range`` — is what grid cell sizing and index query
        radii must derive from: models like ``log_distance`` reach beyond
        the nominal range.  ``nominal_range`` defaults to ``wifi_range``;
        pass a per-radio override to bound that radio's reach.
        """
        from repro.wireless.propagation import propagation_max_range

        return propagation_max_range(
            self.propagation,
            self.propagation_params,
            self.wifi_range if nominal_range is None else nominal_range,
        )

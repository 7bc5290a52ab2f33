"""ARQ retransmission protocols for lossy channels.

The channel layer (:mod:`repro.network.channel`) drops or corrupts
packet attempts; the ARQ protocol decides what to *resend* and when.
Three classic link-layer protocols are provided:

* ``stop-and-wait`` -- one outstanding retransmission per flow; each
  resend waits a full acknowledgement timeout before the next, so
  recovery serialises and throughput collapses fastest as loss grows.
* ``go-back-n`` -- a failed sequence number triggers a resend of the
  whole in-flight window from that point; the receiver discards
  out-of-order arrivals (no reorder buffer), so the duplicates are the
  price of keeping the receiver trivial.
* ``selective-repeat`` -- only the failed sequence numbers are resent;
  the receiver buffers out-of-order arrivals and releases them in
  order.

The protocols govern **retransmissions only**: original packets follow
the application's round schedule untouched (the paper's all-to-all
exchange).  On a perfect, delay-free channel no protocol ever acts, so
all three produce identical delivery schedules there
(``tests/test_arq_properties.py``).  Channel *delays* alone can still
reorder deliveries, in which case go-back-n's discard rule kicks in
while stop-and-wait and selective-repeat remain schedule-identical.

State is tracked per *flow*: one flow per source processor within a job
launch, sequence numbers are the round indices.  :class:`FlowArq` is a
pure state machine -- it owns no clock and no transport -- so the same
logic drives both the synchronous mini-event-loop resolver
(:func:`repro.network.channel.resolve_launch`) and the event-driven
launch path, and is property-testable in isolation.
"""

from __future__ import annotations

#: registered ARQ protocols, the channel layer's strategy column
ARQ_PROTOCOLS = ("stop-and-wait", "go-back-n", "selective-repeat")

#: sliding-window span of go-back-n resends and the nominal
#: selective-repeat window (stop-and-wait is window 1 by definition)
DEFAULT_WINDOW = 8

#: hard cap on transmission attempts per logical packet -- statistically
#: unreachable for any loss rate < 1, so hitting it means a protocol bug
MAX_ATTEMPTS = 10_000

#: retransmission timeouts double per attempt up to ``timeout * 2**CAP``
#: (exponential backoff): a fixed timeout below the congested RTT would
#: declare in-flight packets lost forever and melt the fabric with
#: duplicates
BACKOFF_CAP = 10


class FlowArq:
    """Sender + receiver ARQ state for one flow (one source in a launch).

    The driver feeds it transport events and executes the actions it
    returns:

    * :meth:`should_send` -- gate every (re)transmission attempt;
    * :meth:`on_arrival` -- a physically intact packet reached the
      receiver; returns ``True`` if it was *accepted* (delivered to the
      application), ``False`` if discarded (go-back-n out-of-order) or a
      duplicate;
    * :meth:`on_failure` -- a loss/corruption/discard was detected at
      ``t_detect``; returns ``(send_time, seq)`` retransmissions to
      schedule.

    ``accepted`` maps sequence number to acceptance time once delivered;
    ``attempts[seq]`` counts the transmissions of ``seq`` so far (a list
    of ``total`` ints), so a sequence number that is not yet accepted is
    in flight or was ever sent exactly when its count is non-zero.  A
    resolver that accepts on send (:attr:`accepts_on_send`) may leave the
    count of an original that survived at 0: nothing reads it again.
    """

    __slots__ = (
        "protocol",
        "total",
        "timeout",
        "spacing",
        "window",
        "accepted",
        "expected",
        "pending",
        "busy_until",
        "attempts",
        "last_wave",
        "waves_since_progress",
        "progress_mark",
    )

    def __init__(
        self,
        protocol: str,
        total: int,
        timeout: float,
        spacing: float,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if protocol not in ARQ_PROTOCOLS:
            raise ValueError(
                f"unknown ARQ protocol {protocol!r}; choose from {ARQ_PROTOCOLS}"
            )
        self.protocol = protocol
        self.total = total  #: sequence numbers 0..total-1
        self.timeout = timeout  #: loss detection / ack-wait delay
        self.spacing = spacing  #: injection spacing of streamed resends
        self.window = 1 if protocol == "stop-and-wait" else window
        self.accepted: dict[int, float] = {}
        self.expected = 0  #: go-back-n receiver cursor
        self.pending: set[int] = set()  #: resends scheduled but not sent
        self.busy_until = 0.0  #: stop-and-wait ack-pacing horizon
        self.attempts = [0] * total  #: transmissions per seq (0 = never sent)
        # go-back-n single flow timer: one resend wave per timeout epoch,
        # backing off while the cumulative ack makes no progress
        self.last_wave = float("-inf")
        self.waves_since_progress = 0
        self.progress_mark = 0

    # ------------------------------------------------------------ sender
    def should_send(self, seq: int) -> bool:
        """Gate a transmission attempt; count it and enforce the cap.

        Returns ``False`` when the packet was accepted in the meantime
        (the cumulative/selective ack already reached the sender), which
        suppresses the stale retransmission.
        """
        self.pending.discard(seq)
        if seq in self.accepted:
            return False
        attempts = self.attempts
        n = attempts[seq] + 1
        if n > MAX_ATTEMPTS:
            raise RuntimeError(
                f"ARQ {self.protocol}: packet seq {seq} exceeded "
                f"{MAX_ATTEMPTS} attempts (loss rate too close to 1?)"
            )
        attempts[seq] = n
        return True

    def detect_delay(self, seq: int) -> float:
        """Loss-detection delay of ``seq``'s latest attempt (with backoff)."""
        n = self.attempts[seq] or 1
        return self.timeout * (2.0 ** min(n - 1, BACKOFF_CAP))

    def on_failure(self, seq: int, t_detect: float) -> list[tuple[float, int]]:
        """A failed attempt of ``seq`` was detected; plan retransmissions."""
        if seq in self.accepted or seq in self.pending:
            return []  # recovered or already queued by an earlier window
        if self.protocol == "stop-and-wait":
            t = t_detect if t_detect >= self.busy_until else self.busy_until
            self.busy_until = t + self.timeout
            self.pending.add(seq)
            return [(t, seq)]
        if self.protocol == "go-back-n":
            # single-timer semantics: whichever attempt timed out, the
            # sender's cumulative ack points at the receiver's cursor, so
            # the window is resent from there -- at most one wave per
            # timer epoch (out-of-order discards all trip timeouts, but a
            # real sender has one timer per flow, not one per packet),
            # backing off while the cumulative ack makes no progress
            if self.expected > self.progress_mark:
                self.waves_since_progress = 0
            interval = self.timeout * (
                2.0 ** min(self.waves_since_progress, BACKOFF_CAP)
            )
            if t_detect < self.last_wave + interval:
                return []  # this loss epoch already triggered its wave
            base = self.expected
            out: list[tuple[float, int]] = []
            stop = base + self.window
            if stop > self.total:
                stop = self.total
            attempts = self.attempts
            for s in range(base, stop):
                # resend only packets actually in flight (sent, unacked)
                if s in self.accepted or s in self.pending or not attempts[s]:
                    continue
                self.pending.add(s)
                out.append((t_detect + len(out) * self.spacing, s))
            if out:
                self.last_wave = t_detect
                self.progress_mark = self.expected
                self.waves_since_progress += 1
            return out
        # selective-repeat: resend exactly the failed packet
        self.pending.add(seq)
        return [(t_detect, seq)]

    @property
    def accepts_on_send(self) -> bool:
        """True when a surviving attempt's acceptance is decided when it
        is sent, so a resolver may record ``accepted[seq]`` (at the
        attempt's arrival time) right away instead of waiting for an
        arrival event.

        This holds for stop-and-wait and selective-repeat, because at
        most one attempt of a sequence number is ever in flight: the
        original goes out once, and :meth:`on_failure` plans a resend
        of ``seq`` only after its in-flight attempt failed, and never
        while ``seq`` is pending.  Their receivers accept the first
        intact arrival whatever the order, and no other sequence
        number's handling reads ``accepted[seq]``.  A surviving attempt
        is therefore the only attempt of its ``seq`` still in flight,
        and it will be accepted on arrival.

        Go-back-n's receiver accepts only the sequence number it expects
        next, so its verdict depends on the order of arrivals: its
        resolvers must keep one arrival event per surviving attempt.
        """
        return self.protocol != "go-back-n"

    # ---------------------------------------------------------- receiver
    def on_arrival(self, seq: int, t_arrive: float) -> bool:
        """A physically intact attempt of ``seq`` arrived; accept or not."""
        if seq in self.accepted:
            return False  # duplicate -- selective/cumulative ack absorbs it
        if self.protocol == "go-back-n":
            if seq != self.expected:
                return False  # out of order: no reorder buffer, discard
            self.expected += 1
        self.accepted[seq] = t_arrive
        return True

    @property
    def done(self) -> bool:
        """Every sequence number accepted by the receiver."""
        return len(self.accepted) == self.total

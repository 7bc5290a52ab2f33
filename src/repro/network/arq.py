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

State is tracked per *launch*: :class:`LaunchArq` keeps its flows (one
per source processor, sequence numbers the round indices) in flat lists,
packet ``(i, k)`` at index ``i * total + k``.  It is a pure state
machine -- no clock, no transport -- so the same logic drives both the
synchronous resolver (:func:`repro.network.channel.resolve_launch`) and
the event-driven :class:`repro.network.channel.ChannelledEventLaunch`,
and is property-testable in isolation.
"""

from __future__ import annotations

#: registered ARQ protocols, the channel layer's strategy column
ARQ_PROTOCOLS = ("stop-and-wait", "go-back-n", "selective-repeat")

#: span of a go-back-n resend wave (stop-and-wait keeps one resend in
#: flight per flow, selective-repeat resends exactly the failed packet)
DEFAULT_WINDOW = 8

#: hard cap on transmission attempts per logical packet -- statistically
#: unreachable for any loss rate < 1, so hitting it means a protocol bug
MAX_ATTEMPTS = 10_000

#: retransmission timeouts double per attempt up to ``timeout * 2**CAP``
#: (exponential backoff): a fixed timeout below the congested RTT would
#: declare in-flight packets lost forever and melt the fabric with
#: duplicates
BACKOFF_CAP = 10

#: cap on a launch's *idle* sender-timer re-arms between two sends, per
#: packet and transmission of the launch.  Go-back-n re-arms the timer
#: of a failed packet outside the resend window, with no send, until the
#: window slides over it.  While any attempt, resend or original of the
#: launch is still to come, that event bounds the wait, however long a
#: channel delay is.  Once only re-armed timers are left (the launch is
#: *idle*), a correct protocol sends again within one backed-off wave
#: interval plus one backed-off detection delay, at most
#: ``2 * 2**BACKOFF_CAP`` timeouts, and each timer chain (at most one per
#: transmission) re-arms at most once per timeout in that span; the cap
#: is twice that.  A receiver whose window never slides over a lost
#: packet re-arms for ever with no send.
IDLE_REARMS = 2 ** (BACKOFF_CAP + 2)

#: sentinel time of an acceptance or first injection not yet happened
NOT_YET = float("inf")

#: protocol codes, the indices of :data:`ARQ_PROTOCOLS`
STOP_AND_WAIT, GO_BACK_N, SELECTIVE_REPEAT = range(len(ARQ_PROTOCOLS))


def attempts_exceeded(protocol: str, i: int, k: int) -> RuntimeError:
    """The error of packet ``(i, k)`` reaching :data:`MAX_ATTEMPTS`
    under ``protocol``, one message for every resolver."""
    return RuntimeError(
        f"ARQ {protocol}: packet (flow {i}, seq {k}) exceeded "
        f"{MAX_ATTEMPTS} attempts (loss rate too close to 1?)"
    )


def rearms_exceeded(protocol: str, i: int, k: int) -> RuntimeError:
    """The error of an idle launch re-arming past its
    :data:`IDLE_REARMS` cap, naming the packet ``(i, k)`` re-armed
    last, one message for every resolver."""
    return RuntimeError(
        f"ARQ {protocol}: packet (flow {i}, seq {k}) exceeded the idle "
        f"timer re-arm cap with no send (a window that never slides?)"
    )


class LaunchArq:
    """Sender + receiver ARQ state of every flow of one launch.

    Packet ``(i, k)`` (flow ``i`` of ``n``, sequence number ``k`` of
    ``total``) is index ``j = i * total + k`` of the per-packet lists;
    per-flow state is indexed by ``i``.  ``accepted[j]`` is the
    acceptance time, :data:`NOT_YET` until then; ``attempts[j]`` counts
    transmissions, so a packet not yet accepted is in flight or was ever
    sent exactly when it is non-zero.  ``sent`` counts the launch's
    transmissions and ``idle_rearms`` its idle re-arms since the last
    one (:meth:`rearm_idle`).

    The driver feeds it transport events and executes the actions it
    returns:

    * :meth:`should_send` -- gate every (re)transmission attempt;
    * :meth:`on_arrival` -- a physically intact packet reached the
      receiver; returns ``True`` if it was *accepted* (delivered to the
      application), ``False`` if discarded (go-back-n out-of-order) or a
      duplicate;
    * :meth:`on_failure` -- a loss/corruption/discard was detected at
      ``t_detect``; returns the flow's ``(send_time, seq)``
      retransmissions to schedule;
    * :meth:`rearm_idle` -- the driver re-arms the timer of a failed
      packet left unrecovered (go-back-n) while nothing but re-armed
      timers is left of the launch.
    """

    __slots__ = (
        "kind",
        "total",
        "timeout",
        "spacing",
        "attempts",
        "accepted",
        "first_inject",
        "pending",
        "busy_until",
        "expected",
        "last_wave",
        "waves_since_progress",
        "progress_mark",
        "sent",
        "idle_rearms",
    )

    def __init__(
        self, protocol: str, n: int, total: int, timeout: float, spacing: float
    ) -> None:
        self.kind = ARQ_PROTOCOLS.index(protocol)
        self.total = total  #: sequence numbers 0..total-1 per flow
        self.timeout = timeout  #: loss detection / ack-wait delay
        self.spacing = spacing  #: injection spacing of streamed resends
        size = n * total
        self.attempts = [0] * size  #: transmissions per packet (0 = never sent)
        self.accepted = [NOT_YET] * size
        self.first_inject = [NOT_YET] * size  #: first injection, set by the driver
        self.pending = bytearray(size)  #: 1 = resend scheduled but not sent
        self.busy_until = [0.0] * n  #: stop-and-wait ack-pacing horizon
        self.expected = [0] * n  #: go-back-n receiver cursor
        # go-back-n single flow timer: one resend wave per timeout epoch,
        # backing off while the cumulative ack makes no progress
        self.last_wave = [float("-inf")] * n
        self.waves_since_progress = [0] * n
        self.progress_mark = [0] * n
        self.sent = 0
        self.idle_rearms = 0

    # ------------------------------------------------------------ sender
    def should_send(self, i: int, k: int) -> bool:
        """Gate a transmission attempt; count it and enforce the cap.

        Returns ``False`` when the packet was accepted in the meantime
        (the cumulative/selective ack already reached the sender), which
        suppresses the stale retransmission.
        """
        j = i * self.total + k
        self.pending[j] = 0
        if self.accepted[j] != NOT_YET:
            return False
        attempts = self.attempts[j] + 1
        if attempts > MAX_ATTEMPTS:
            raise attempts_exceeded(ARQ_PROTOCOLS[self.kind], i, k)
        self.attempts[j] = attempts
        self.sent += 1
        self.idle_rearms = 0
        return True

    def rearm_idle(self, i: int, k: int) -> None:
        """Count one re-arm of ``(i, k)``'s sender timer made while the
        launch is idle; raise past :data:`IDLE_REARMS` per packet and
        transmission since the last send."""
        self.idle_rearms += 1
        if self.idle_rearms > IDLE_REARMS * (len(self.attempts) + self.sent):
            raise rearms_exceeded(ARQ_PROTOCOLS[self.kind], i, k)

    def detect_delay(self, i: int, k: int) -> float:
        """Loss-detection delay of ``(i, k)``'s latest attempt (with backoff)."""
        attempts = self.attempts[i * self.total + k] or 1
        return self.timeout * (2.0 ** min(attempts - 1, BACKOFF_CAP))

    def on_failure(self, i: int, k: int, t_detect: float) -> list[tuple[float, int]]:
        """A failed attempt of ``(i, k)`` was detected; plan retransmissions."""
        j = i * self.total + k
        if self.accepted[j] != NOT_YET or self.pending[j]:
            return []  # recovered or already queued by an earlier window
        if self.kind != GO_BACK_N:  # resend exactly the failed packet
            t = t_detect
            if self.kind == STOP_AND_WAIT:  # after the previous ack wait
                t = max(t_detect, self.busy_until[i])
                self.busy_until[i] = t + self.timeout
            self.pending[j] = 1
            return [(t, k)]
        # go-back-n, single-timer semantics: whichever attempt timed out,
        # the sender's cumulative ack points at the receiver's cursor, so
        # the window is resent from there -- at most one wave per timer
        # epoch (out-of-order discards all trip timeouts, but a real
        # sender has one timer per flow, not one per packet), backing off
        # while the cumulative ack makes no progress
        expected = self.expected[i]
        if expected > self.progress_mark[i]:
            self.waves_since_progress[i] = 0
        interval = self.timeout * (
            2.0 ** min(self.waves_since_progress[i], BACKOFF_CAP)
        )
        if t_detect < self.last_wave[i] + interval:
            return []  # this loss epoch already triggered its wave
        out: list[tuple[float, int]] = []
        first = i * self.total
        stop = expected + DEFAULT_WINDOW
        if stop > self.total:
            stop = self.total
        for j in range(first + expected, first + stop):
            # resend only packets actually in flight (sent, unacked)
            if self.accepted[j] != NOT_YET or self.pending[j] or not self.attempts[j]:
                continue
            self.pending[j] = 1
            out.append((t_detect + len(out) * self.spacing, j - first))
        if out:
            self.last_wave[i] = t_detect
            self.progress_mark[i] = expected
            self.waves_since_progress[i] += 1
        return out

    # ---------------------------------------------------------- receiver
    def on_arrival(self, i: int, k: int, t_arrive: float) -> bool:
        """A physically intact attempt of ``(i, k)`` arrived; accept or not."""
        j = i * self.total + k
        if self.accepted[j] != NOT_YET:
            return False  # duplicate -- selective/cumulative ack absorbs it
        if self.kind == GO_BACK_N:
            if k != self.expected[i]:
                return False  # out of order: no reorder buffer, discard
            self.expected[i] = k + 1
        self.accepted[j] = t_arrive
        return True

    @property
    def done(self) -> bool:
        """Every packet of every flow accepted by its receiver."""
        return NOT_YET not in self.accepted

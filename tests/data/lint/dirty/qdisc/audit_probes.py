"""Dirty fixture for REP012: bad audit names, a probe that mutates state."""


class LeakyCodel:
    def __init__(self, auditor):
        self.auditor = auditor
        self.drops = 0
        self.occupancy = 3

    def _register_audit(self):
        self.auditor.note("qdisc.enqueue_count", 0.0)
        self.auditor.watch("audit.codel.Backlog-Bytes", lambda: 0)
        self.auditor.watch("audit.codel.backlog", lambda: 0)

    def _audit_occupancy(self, now_s: float) -> None:
        self.drops += 1
        self.auditor.probe(
            "audit.codel.occupancy_bounds_pkts", self.occupancy >= 0, now_s
        )
        instruments.current().auditor.note("qdisc.drop_count", 0.0)

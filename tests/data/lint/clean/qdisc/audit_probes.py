"""Clean twin: namespaced, unit-suffixed audit names; read-only probes."""


class AccountedCodel:
    def __init__(self, auditor):
        self.auditor = auditor
        self.drops = 0
        self.occupancy = 3

    def _register_audit(self):
        self.auditor.note("audit.codel.enqueue_count", 0.0)
        self.auditor.watch("audit.codel.backlog_bytes", lambda: 0)

    def _audit_occupancy(self, now_s: float) -> None:
        self.auditor.probe(
            "audit.codel.occupancy_bounds_pkts", self.occupancy >= 0, now_s
        )

    def record_drop(self) -> None:
        self.drops += 1
        instruments.current().auditor.note("audit.codel.drop_count", 0.0)

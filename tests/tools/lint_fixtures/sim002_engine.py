# repro-lint-fixture-module: repro.dsa.engine
"""SIM002 negative fixture: the engine keeps its own in-flight list sorted."""

import bisect


class Engine:
    def __init__(self) -> None:
        self.inflight: list = []

    def admit(self, item) -> None:
        bisect.insort(self.inflight, item, key=lambda i: i.completion_time)

    def retire_due(self, count: int) -> list:
        done = self.inflight[:count]
        del self.inflight[:count]
        return done

    def replace_head(self, item) -> None:
        self.inflight[0] = item

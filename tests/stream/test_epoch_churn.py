"""Epoch pinning under publish churn, driven by a hypothesis state machine.

Rules ingest records, publish epochs, pin the current epoch, suggest
(unpinned, and under a held pin that later publishes supersede), and
unpin, in any order.  The invariant behind every answer: it equals a
fresh ``PQSDA.build`` over the record prefix of the epoch the request is
pinned to — F* scores included — however many epochs were published
and cached in between.
"""

from functools import lru_cache

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig
from repro.logs.storage import QueryLog
from repro.stream import IngestConfig, streaming_pqsda
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

CONFIG = PQSDAConfig(
    compact=CompactConfig(size=25),
    diversify=DiversifyConfig(k=8, candidate_pool=15),
    personalize=False,
    cache_size=256,
)

_LOG = generate_log(
    make_world(seed=0),
    GeneratorConfig(n_users=12, mean_sessions_per_user=6, seed=5),
).log
RECORDS = sorted(_LOG.records, key=lambda r: (r.timestamp, r.record_id))
BOOTSTRAP = int(len(RECORDS) * 0.6)
PROBES = sorted(QueryLog(RECORDS[:BOOTSTRAP]).unique_queries)[:8]


@lru_cache(maxsize=None)
def _fresh(n_records: int) -> PQSDA:
    """The batch reference over the first *n_records* streamed records."""
    return PQSDA.build(QueryLog(RECORDS[:n_records]), config=CONFIG)


class EpochChurn(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        # One huge micro-batch: records only fold when ``publish`` asks.
        self.suggester, self.ingestor, self.manager = streaming_pqsda(
            QueryLog(RECORDS[:BOOTSTRAP]),
            config=CONFIG,
            ingest=IngestConfig(batch_size=len(RECORDS), clean=False),
        )
        self.fed = BOOTSTRAP
        self.pins: list = []

    def _check(self, answer_of, epoch) -> None:
        """Every probe's answer under *epoch* equals the fresh build's."""
        fresh = _fresh(len(epoch.log))
        for query in PROBES:
            expected = fresh.diversified_candidates(query)
            assert answer_of(query) == expected, (epoch.epoch_id, query)

    @rule(n=st.integers(min_value=1, max_value=6))
    def ingest(self, n):
        batch = RECORDS[self.fed : self.fed + n]
        self.ingestor.ingest(iter(batch), publish_remainder=False)
        self.fed += len(batch)

    @rule()
    def publish(self):
        self.ingestor.ingest(iter(()))

    @rule()
    def pin(self):
        pin = self.manager.pin()
        self.pins.append((pin, pin.__enter__()))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def unpin(self, data):
        index = data.draw(st.integers(0, len(self.pins) - 1))
        pin, _ = self.pins.pop(index)
        pin.__exit__(None, None, None)

    @rule()
    def suggest(self):
        # No publish runs concurrently, so each request pins the current
        # epoch.
        self._check(
            self.suggester.diversified_candidates, self.manager.current()
        )

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def suggest_pinned(self, data):
        # What ``diversified_candidates`` runs inside its pin, for
        # requests whose pin later publishes have superseded.
        _, epoch = data.draw(st.sampled_from(self.pins))
        self._check(
            lambda query: self.suggester._diversified(
                epoch.multibipartite, epoch.expander, query, (), 0.0
            ),
            epoch,
        )

    @invariant()
    def pins_keep_exactly_their_epochs_live(self):
        stats = self.manager.stats
        live = {epoch.epoch_id for _, epoch in self.pins}
        live.add(stats.current_epoch)
        assert stats.live == len(live)
        assert stats.pinned_readers == len(self.pins)

    def teardown(self):
        for pin, _ in self.pins:
            pin.__exit__(None, None, None)


EpochChurn.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEpochChurn = EpochChurn.TestCase

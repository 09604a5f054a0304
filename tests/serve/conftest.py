"""Shared serving-plane fixtures: one small synthetic world per package."""

import pytest

from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.personalize.upm import UPM, UPMConfig
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.topicmodels.corpus import build_corpus

SERVE_CONFIG = PQSDAConfig(
    compact=CompactConfig(size=60),
    diversify=DiversifyConfig(k=8, candidate_pool=15),
    personalize=False,
    cache_size=64,
)

#: Personalized twin of SERVE_CONFIG: same serving pipeline, tiny UPM.
SERVE_PERSONAL_CONFIG = PQSDAConfig(
    compact=CompactConfig(size=60),
    diversify=DiversifyConfig(k=8, candidate_pool=15),
    upm=UPMConfig(n_topics=4, iterations=8, hyperopt_every=0, seed=0),
    personalize=True,
    cache_size=64,
)


@pytest.fixture(scope="package")
def synthetic_log():
    world = make_world(seed=0)
    return generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    ).log


@pytest.fixture(scope="package")
def multibipartite(synthetic_log):
    return build_multibipartite(synthetic_log, sessionize(synthetic_log))


@pytest.fixture(scope="package")
def expander(multibipartite):
    return RandomWalkExpander(multibipartite)


@pytest.fixture(scope="package")
def single_suggester(multibipartite, expander):
    """The single-process reference every pooled result must match."""
    return PQSDA(multibipartite, expander, None, SERVE_CONFIG)


@pytest.fixture(scope="package")
def upm_model(synthetic_log):
    """The UPM fit behind ``profile_store``: the Eq. 31 reference."""
    corpus = build_corpus(synthetic_log, sessionize(synthetic_log))
    return UPM(SERVE_PERSONAL_CONFIG.upm).fit(corpus)


@pytest.fixture(scope="package")
def profile_store(synthetic_log, multibipartite, expander):
    """The profile store ``PQSDA.build`` fits over the same synthetic log."""
    return PQSDA.build(
        synthetic_log,
        config=SERVE_PERSONAL_CONFIG,
        multibipartite=multibipartite,
        expander=expander,
    ).profiles


@pytest.fixture(scope="package")
def personal_suggester(multibipartite, expander, profile_store):
    """The single-process personalized reference for pooled bit-identity."""
    return PQSDA(multibipartite, expander, profile_store, SERVE_PERSONAL_CONFIG)

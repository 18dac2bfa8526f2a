"""Golden protocol values: pin what refactors of the runtime must not move.

At quick scale (15 peers x 100 items, the CLI's ``--scale quick``) with a
fixed seed this records

* the fabric's INSERT / REPLICATE / RANGE_QUERY hop and byte totals of
  every network the Figure 8a, 8b and 8c runners publish, plus the rows
  they report — all bit-identical;
* seeded ``range_query`` / ``knn_query`` answers through
  :class:`repro.core.network.HyperMNetwork`: retrieved item sets exactly,
  peer scores to 1e-9, each k-NN answer's per-level Eq. 8 radius
  ``ε_l`` exactly, and the query traffic they cost — index
  (RANGE_QUERY) and direct retrieval (RETRIEVE requests, DATA
  responses) hops and bytes bit-identical;
* the adapted arm of :func:`repro.evaluation.adaptation.run_adaptation`:
  JOIN / INSERT / REPLICATE / RANGE_QUERY hop and byte totals and the
  controller's decision counts bit-identical, zone-bytes Gini to 1e-12.
  This covers the route-penalty tie-break and ``rebalance_zone``.

A change to the execution plumbing (scheduler, stores, query pipeline)
must leave every value here untouched. To inspect the current values,
run ``PYTHONPATH=src python tests/test_golden_protocol.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import HyperMConfig
from repro.evaluation import adaptation, dissemination
from repro.evaluation.workloads import build_markov_network
from repro.net.messages import MessageKind

SEED = 0
KINDS = (MessageKind.INSERT, MessageKind.REPLICATE, MessageKind.RANGE_QUERY)
#: Direct-retrieval traffic: one RETRIEVE request per contacted peer and
#: one DATA response sized by the items it returns.
QUERY_KINDS = (*KINDS, MessageKind.RETRIEVE, MessageKind.DATA)


def _traffic(fabric, kinds=KINDS) -> dict:
    """``{kind: [hops, bytes]}`` for the pinned message kinds."""
    out = {}
    for kind in kinds:
        bucket = fabric.metrics.by_kind.get(kind)
        out[kind.value] = [bucket.hops, bucket.bytes] if bucket else [0, 0]
    return out


def _run_figure(runner, **params) -> dict:
    """Run one Figure 8 runner; return its rows and per-network traffic."""
    networks = []

    def recording_build(**build_kwargs):
        workload, report = build_markov_network(**build_kwargs)
        networks.append(_traffic(workload.network.fabric))
        return workload, report

    original = dissemination.build_markov_network
    dissemination.build_markov_network = recording_build
    try:
        result = runner(n_peers=15, rng=SEED, **params)
    finally:
        dissemination.build_markov_network = original
    if isinstance(result, tuple):
        rows, baselines = result
        rows = [*rows, baselines]
    else:
        rows = result
    return {
        "rows": [list(vars(row).values()) for row in rows],
        "traffic": networks,
    }


def observe_fig8a() -> dict:
    return _run_figure(dissemination.run_fig8a, items_per_peer=100)


def observe_fig8b() -> dict:
    return _run_figure(dissemination.run_fig8b)


def observe_fig8c() -> dict:
    return _run_figure(dissemination.run_fig8c, items_per_peer=100)


def _scores(result) -> dict:
    return {int(p): float(s) for p, s in result.peer_scores.items()}


def observe_queries() -> dict:
    """Seeded range and k-NN queries through one published network."""
    workload, __ = build_markov_network(
        n_peers=12, items_per_peer=40, dimensionality=32,
        config=HyperMConfig(levels_used=3, n_clusters=4), rng=SEED,
    )
    network = workload.network
    rng = np.random.default_rng(SEED)
    picks = rng.integers(0, workload.data.shape[0], size=4)
    queries = np.clip(
        workload.data[picks] + rng.normal(0.0, 0.02, (4, 32)), 0.0, 1.0
    )
    range_answers = []
    knn_answers = []
    for index, query in enumerate(queries):
        origin = index % network.n_peers
        result = network.range_query(query, 0.3, origin_peer=origin)
        range_answers.append({
            "items": sorted(result.item_ids),
            "scores": _scores(result),
            "index_hops": result.index_hops,
        })
        result = network.knn_query(query, 5, origin_peer=origin)
        knn_answers.append({
            "items": sorted(result.item_ids),
            "top_k": sorted(result.top_k_ids()),
            "epsilon_per_level": {
                str(level): float(eps)
                for level, eps in result.epsilon_per_level.items()
            },
            "scores": _scores(result),
            "index_hops": result.index_hops,
        })
    return {
        "range": range_answers,
        "knn": knn_answers,
        "traffic": _traffic(network.fabric, QUERY_KINDS),
    }


def observe_adaptation() -> dict:
    """Traffic, decisions and zone Gini of the adapted arm."""
    networks = []

    def recording_build(**build_kwargs):
        workload, report = build_markov_network(**build_kwargs)
        networks.append(workload.network)
        return workload, report

    original = adaptation.build_markov_network
    adaptation.build_markov_network = recording_build
    try:
        __, adapted = adaptation.run_adaptation(
            n_peers=15, items_per_peer=100, rng=SEED
        )
    finally:
        adaptation.build_markov_network = original
    network = networks[-1]
    return {
        "traffic": _traffic(
            network.fabric, (MessageKind.JOIN, *KINDS)
        ),
        "decisions": network.adaptation.snapshot()["decisions"],
        "zone_gini": adapted.zone_gini,
    }


# Recorded with seed 0 at quick scale; see the module docstring.
GOLDEN: dict = (
    {'fig8a': {'rows': [[2, 9.891666666666667, 2.6416666666666666, 7.25,
                         0.19576789093564792],
                        [5, 7.083333333333333, 2.85, 4.233333333333333,
                         0.10015183235751353],
                        [10, 5.038333333333333, 2.7333333333333334, 2.305,
                         0.05129843965157497],
                        [20, 4.4275, 2.8075, 1.62, 0.024699579904346538],
                        [40, 3.47625, 2.7804166666666665, 0.6958333333333333,
                         0.007952615289489337]],
               'traffic': [{'insert': [317, 19280],
                            'replicate': [870, 59208],
                            'range_query': [0, 0]},
                           {'insert': [855, 52016],
                            'replicate': [1270, 91488],
                            'range_query': [0, 0]},
                           {'insert': [1640, 99112],
                            'replicate': [1383, 101080],
                            'range_query': [0, 0]},
                           {'insert': [3369, 205664],
                            'replicate': [1944, 147632],
                            'range_query': [0, 0]},
                           {'insert': [6673, 406288],
                            'replicate': [1670, 127832],
                            'range_query': [0, 0]}]},
     'fig8b': {'rows': [[375, 6.629333333333333, 1.7306666666666666,
                         1.8773333333333333],
                        [750, 3.776, 1.6933333333333334, 1.812],
                        [1500, 2.096, 1.552338530066815, 1.758723088344469],
                        [3000, 1.1003333333333334, 1.8073333333333332,
                         1.8293333333333333]],
               'traffic': [{'insert': [1749, 107208],
                            'replicate': [737, 55176],
                            'range_query': [0, 0]},
                           {'insert': [1756, 106280],
                            'replicate': [1076, 79576],
                            'range_query': [0, 0]},
                           {'insert': [1685, 102448],
                            'replicate': [1459, 107944],
                            'range_query': [0, 0]},
                           {'insert': [1598, 96912],
                            'replicate': [1703, 124392],
                            'range_query': [0, 0]}]},
     'fig8c': {'rows': [[1, 0.452], [2, 0.944], [3, 1.2726666666666666],
                        [4, 2.272], [5, 3.384], [6, 4.44],
                        [1.6235912847483096, 1.6927122464312547]],
               'traffic': [{'insert': [530, 29680],
                            'replicate': [148, 8288],
                            'range_query': [0, 0]},
                           {'insert': [1173, 65688],
                            'replicate': [243, 13608],
                            'range_query': [0, 0]},
                           {'insert': [1426, 81808],
                            'replicate': [483, 28864],
                            'range_query': [0, 0]},
                           {'insert': [1693, 103304],
                            'replicate': [1715, 127816],
                            'range_query': [0, 0]},
                           {'insert': [1921, 129680],
                            'replicate': [3155, 291696],
                            'range_query': [0, 0]},
                           {'insert': [2205, 175344],
                            'replicate': [4455, 527024],
                            'range_query': [0, 0]}]},
     'queries': {'range': [{'items': [71, 84, 85, 105, 203, 234, 242, 272, 406,
                                      408],
                            'scores': {0: 4.663436730747389,
                                       1: 5.1882000243236375,
                                       2: 4.968957151277014,
                                       3: 5.472902807523604,
                                       5: 0.3181259891873723,
                                       6: 5.070785079462589,
                                       7: 7.282747065568999,
                                       8: 3.8026192125575484,
                                       11: 4.835153249686426},
                            'index_hops': 17},
                           {'items': [305],
                            'scores': {0: 6.041833750801912,
                                       1: 8.909726466129987,
                                       2: 6.904285732109539,
                                       3: 8.238028982082684,
                                       4: 5.374655729977666,
                                       6: 9.162228680610728,
                                       7: 5.474819092616663,
                                       9: 5.165660693015373,
                                       11: 7.616745827355584},
                            'index_hops': 12},
                           {'items': [245],
                            'scores': {0: 0.5042019315766388,
                                       1: 1.0,
                                       2: 0.12008551953426423,
                                       3: 1.3253448101635277,
                                       7: 2.0233751614123663,
                                       11: 0.1466804792586114},
                            'index_hops': 10},
                           {'items': [42, 100, 129, 237, 280, 396],
                            'scores': {0: 6.041833750801912,
                                       1: 9.557046172874795,
                                       2: 8.218212005768512,
                                       3: 9.008279619785252,
                                       4: 5.987561454297984,
                                       6: 9.116923133155812,
                                       7: 5.474819092616663,
                                       9: 5.115215590050818,
                                       11: 7.616745827355584},
                            'index_hops': 18}],
                 'knn': [{'items': [16, 74, 84, 203, 242, 296, 354, 406, 408],
                          'top_k': [84, 203, 242, 406, 408],
                          'epsilon_per_level': {'A': 0.006312961814470448,
                                                'D0': 0.0007401696319822308,
                                                'D1': 0.010663729711244315},
                          'scores': {0: 0.44764688155153864,
                                     1: 0.34301398300157115,
                                     2: 0.5914964583069757,
                                     3: 0.5265833469121626,
                                     6: 0.37852482508458135,
                                     7: 0.23793113647900288,
                                     8: 0.1577969416493658,
                                     11: 0.22694771053548007},
                          'index_hops': 29},
                         {'items': [18, 42, 100, 129, 162, 187, 225, 237, 305],
                          'top_k': [42, 129, 225, 237, 305],
                          'epsilon_per_level': {'A': 0.004439120917028575,
                                                'D0': 0.0007400882192942021,
                                                'D1': 0.011468819937230928},
                          'scores': {0: 0.4475976440060626,
                                     1: 0.4691117251939918,
                                     2: 0.5777028796671119,
                                     3: 0.6178894711772371,
                                     4: 0.31720640798418875,
                                     6: 0.42393614380948086,
                                     7: 0.18928381640559977,
                                     9: 0.13469877553940915,
                                     11: 0.2658600709590649},
                          'index_hops': 20},
                         {'items': [58, 131, 184, 229, 245, 357, 460, 478],
                          'top_k': [131, 229, 245, 460, 478],
                          'epsilon_per_level': {'A': 0.004610751205787932,
                                                'D0': 0.0009535304260375233,
                                                'D1': 0.07376723851933804},
                          'scores': {0: 0.4054445919908223,
                                     1: 0.47862099242374123,
                                     2: 0.09660227256158918,
                                     3: 0.23265024532338907,
                                     7: 0.31610607426813714,
                                     11: 0.13030812709194362},
                          'index_hops': 19},
                         {'items': [42, 100, 129, 144, 200, 237, 280, 305,
                                    395],
                          'top_k': [42, 100, 129, 237, 280],
                          'epsilon_per_level': {'A': 0.004098630636427615,
                                                'D0': 0.0007938902120050171,
                                                'D1': 0.010363402945682994},
                          'scores': {0: 0.2683041394365884,
                                     1: 0.39078413761814124,
                                     2: 0.32714462612605066,
                                     3: 0.5786402673102126,
                                     6: 0.3575039784545017,
                                     7: 0.4231187680827819,
                                     9: 0.21968286015419947,
                                     11: 0.23081885957103937},
                          'index_hops': 29}],
                 'traffic': {'insert': [379, 21840],
                             'replicate': [249, 14640],
                             'range_query': [154, 7656],
                             'retrieve': [56, 17024],
                             'data': [56, 14576]}},
     'adaptation': {'traffic': {'join': [78, 3144],
                                'insert': [830, 47752],
                                'replicate': [608, 37856],
                                'range_query': [937, 46864]},
                    'decisions': {'split': 12, 'boost': 72, 'shed': 0},
                    'zone_gini': 0.35907700737643666}}
)


@pytest.mark.parametrize("figure", ["fig8a", "fig8b", "fig8c"])
def test_figure8_traffic_is_bit_identical(figure):
    observed = globals()[f"observe_{figure}"]()
    assert observed == GOLDEN[figure]


@pytest.fixture(scope="module")
def queries():
    return observe_queries()


def test_adaptation_is_bit_identical():
    observed = observe_adaptation()
    golden = GOLDEN["adaptation"]
    assert observed["traffic"] == golden["traffic"]
    assert observed["decisions"] == golden["decisions"]
    assert observed["zone_gini"] == pytest.approx(
        golden["zone_gini"], rel=0, abs=1e-12
    )


def _assert_answers(observed, golden):
    assert len(observed) == len(golden)
    for got, want in zip(observed, golden):
        assert got["items"] == want["items"]
        assert got.get("top_k") == want.get("top_k")
        assert got.get("epsilon_per_level") == want.get("epsilon_per_level")
        assert got["index_hops"] == want["index_hops"]
        assert set(got["scores"]) == {int(p) for p in want["scores"]}
        for peer, score in want["scores"].items():
            assert got["scores"][int(peer)] == pytest.approx(
                score, rel=0, abs=1e-9
            )


def test_range_query_answers(queries):
    _assert_answers(queries["range"], GOLDEN["queries"]["range"])


def test_knn_query_answers(queries):
    _assert_answers(queries["knn"], GOLDEN["queries"]["knn"])


def test_query_traffic_is_bit_identical(queries):
    assert queries["traffic"] == GOLDEN["queries"]["traffic"]


if __name__ == "__main__":  # pragma: no cover - prints the golden values
    import pprint

    pprint.pprint(
        {
            "fig8a": observe_fig8a(),
            "fig8b": observe_fig8b(),
            "fig8c": observe_fig8c(),
            "queries": observe_queries(),
            "adaptation": observe_adaptation(),
        },
        width=75,
        compact=True,
        sort_dicts=False,
    )

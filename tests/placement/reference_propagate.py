"""The per-leaf search the table-driven one is tested against.

:meth:`repro.placement.propagate.Propagator.solutions` and
:meth:`~repro.placement.propagate.Propagator.evaluate` read rows computed
once per program.  These are the search they replaced, verbatim: a
depth-first enumeration of ``loop_choices()`` that re-walks every value
site (``cross_node``) and every arrow (``cross_arrow``) at each leaf.
"""

from typing import Iterator, Optional

from repro.automata.state import SCA0, State, coherent
from repro.placement.dfg import N_DEF, N_IN
from repro.placement.propagate import Propagator, Solution


def reference_evaluate(prop: Propagator,
                       domains: dict[int, str]) -> Optional[Solution]:
    """cross_node/cross_arrow over the whole graph for fixed domains.

    Returns None when some definition has no admissible state (paper:
    "no applicable transition") under these domains.
    """
    states: dict = {}
    # cross_node: assign M_n
    for node in prop.vfg.nodes:
        if node.kind == N_IN:
            states[node] = prop.input_state(node.var)
        elif node.kind == N_DEF:
            st = prop.def_state(node, domains)
            if st is None:
                return None
            states[node] = st
    # cross_arrow: assign M_a (work list kept explicit/iterative)
    edge_updates: dict = {}
    pending = list(prop.vfg.edges)
    while pending:
        edge = pending.pop()
        src_state: State = states[edge.src]
        domain = domains.get(edge.dst_loop) if edge.dst_loop else None
        deliveries = prop.automaton.deliver(src_state, edge.guard, domain)
        if not deliveries:
            return None
        chosen = deliveries[0]
        if chosen.update is not None:
            edge_updates[edge] = chosen.update
    for var, out_node in prop.vfg.outputs.items():
        states[out_node] = coherent(prop.spec.entity_of_array(var)) \
            if prop.spec.entity_of_array(var) else SCA0
    return Solution(domains=dict(domains), states=states,
                    edge_updates=edge_updates)


def reference_solutions(prop: Propagator,
                        limit: Optional[int] = None) -> Iterator[Solution]:
    """Depth-first enumeration of all consistent placements.

    The iteration order tries OVERLAP before KERNEL, so the first
    solution matches the paper's figure 9 (all-overlap domains) and a
    later one its figure 10 (kernel domains with grouped updates).
    """
    choices = prop.loop_choices()
    found = 0
    stack: list[tuple[int, dict[int, str]]] = [(0, {})]
    while stack:
        idx, assigned = stack.pop()
        if idx == len(choices):
            sol = reference_evaluate(prop, assigned)
            if sol is not None:
                yield sol
                found += 1
                if limit is not None and found >= limit:
                    return
            continue
        lsid, alts = choices[idx]
        # push in reverse so alts[0] (OVERLAP) is explored first
        for dom in reversed(alts):
            nxt = dict(assigned)
            nxt[lsid] = dom
            stack.append((idx + 1, nxt))

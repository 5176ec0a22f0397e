"""Deliberately dirty fixture exercising the REP008 scalar-hot-path rule.

Never imported at runtime: the linter only parses it.  Line numbers are
asserted by tests/test_lint.py — renumber there after editing here.
"""


def slow_survey(network, locations):
    points = []
    for location in locations:
        rsrps = network.rsrp_map_at(location)
        points.append(max(rsrps.values()))
    return points


def slow_map(network, location):
    return {cell.pci: cell.rsrp_at(location, network.environment) for cell in network.cells}


def slow_best(network, location):
    best = None
    for cell in network.cells:
        sample = network.sample_at(location, serving_pci=cell.pci)
        if best is None or sample.sinr_db > best:
            best = sample.sinr_db
    return best


def allowed_per_cell_geometry(network, location):
    # Attribute reads and distance math over .cells are fine — only the
    # scalar radio evaluators have batched twins.
    return [cell.distance_to(location) for cell in network.cells]


def slow_fades(factory, keys):
    return [float(factory.stream(key).standard_normal()) for key in keys]

"""Clean twin of the dirty REP008 fixture: the sanctioned batched forms."""


def fast_survey(network, locations):
    matrix = network.rsrp_matrix_at(locations)
    return matrix.max(axis=1).tolist()


def fast_map(network, location):
    row = network.rsrp_matrix_at((location,))[0]
    return dict(zip(network.pcis, row.tolist()))


def fast_best(network, locations):
    sinrs = [sample.sinr_db for sample in network.samples_at(locations)]
    return max(sinrs)


def allowed_per_cell_geometry(network, location):
    return [cell.distance_to(location) for cell in network.cells]


def fast_fades(factory, keys):
    return factory.standard_normals(keys).tolist()

"""Built-in spaces and maps used by the test suites and the CLI.

Every complex here passes validation and every map passes the simplicial
check; the suites pin their expected invariants.  Construction notes are
kept next to each entry so a reported failure can be traced to a concrete
triangulation.
"""

from functools import lru_cache

from .complex import (
    SimplicialComplex,
    SimplicialMap,
    check_simplicial,
    compose,
    constant_map,
    identity_map,
    validate,
)

# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def point() -> SimplicialComplex:
    return validate([["p"]], name="point")


@lru_cache(maxsize=None)
def interval() -> SimplicialComplex:
    return validate([["a", "b"]], name="interval")


@lru_cache(maxsize=None)
def triangle2() -> SimplicialComplex:
    """A solid 2-simplex (disk), boundary included."""
    return validate([["a", "b", "c"]], name="disk")


@lru_cache(maxsize=None)
def circle(k: int, prefix: str = "v", name=None) -> SimplicialComplex:
    """The k-gon circle with vertices prefix0..prefix{k-1}."""
    edges = [[f"{prefix}{i}", f"{prefix}{(i + 1) % k}"] for i in range(k)]
    order = [f"{prefix}{i}" for i in range(k)]
    return validate(edges, name=name or f"{k}-gon", vertices=order, vertex_order=order)


@lru_cache(maxsize=None)
def hexagon() -> SimplicialComplex:
    return circle(6, prefix="v", name="hexagon")


@lru_cache(maxsize=None)
def triangle_circle() -> SimplicialComplex:
    return circle(3, prefix="w", name="triangle")


@lru_cache(maxsize=None)
def dodecagon() -> SimplicialComplex:
    return circle(12, prefix="x", name="dodecagon")


@lru_cache(maxsize=None)
def octahedron() -> SimplicialComplex:
    """S^2 as the octahedron: poles u, d over the equator n, e, s, w."""
    eq = ["n", "e", "s", "w"]
    faces = []
    for i in range(4):
        a, b = eq[i], eq[(i + 1) % 4]
        faces.append(["u", a, b])
        faces.append(["d", a, b])
    return validate(faces, name="octahedron")


@lru_cache(maxsize=None)
def icosahedron() -> SimplicialComplex:
    """S^2 as the icosahedron: two pentagonal caps over an antiprism band."""
    top = [f"t{i}" for i in range(5)]
    bot = [f"b{i}" for i in range(5)]
    faces = []
    for i in range(5):
        faces.append(["N", top[i], top[(i + 1) % 5]])
        faces.append(["S", bot[i], bot[(i + 1) % 5]])
        faces.append([top[i], top[(i + 1) % 5], bot[i]])
        faces.append([bot[i], bot[(i + 1) % 5], top[(i + 1) % 5]])
    return validate(faces, name="icosahedron")


def _torus_faces(tag):
    faces = []
    for i in range(3):
        for j in range(3):
            v = lambda a, b: f"{tag}{a % 3}{b % 3}"
            faces.append([v(i, j), v(i + 1, j), v(i, j + 1)])
            faces.append([v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)])
    return faces


@lru_cache(maxsize=None)
def torus() -> SimplicialComplex:
    """The 9-vertex 3x3 grid torus, 18 triangles."""
    return validate(_torus_faces("t"), name="torus")


@lru_cache(maxsize=None)
def torus7() -> SimplicialComplex:
    """The 7-vertex Moebius-Kantor torus: faces {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    faces = []
    for i in range(7):
        faces.append([f"c{i}", f"c{(i + 1) % 7}", f"c{(i + 3) % 7}"])
        faces.append([f"c{i}", f"c{(i + 2) % 7}", f"c{(i + 3) % 7}"])
    return validate(faces, name="torus7")


@lru_cache(maxsize=None)
def genus2() -> SimplicialComplex:
    """Genus-2 surface: two 9-vertex tori glued along a removed triangle.

    The triangle a00-a10-a01 is removed from the first torus and
    b00-b10-b01 from the second; the boundary cycles are identified
    vertex-wise, so chi = -2 and the surface stays orientable.
    """
    glue = {"b00": "a00", "b10": "a10", "b01": "a01"}
    removed = {
        tuple(sorted(("a00", "a10", "a01"))),
        tuple(sorted(("b00", "b10", "b01"))),
    }
    faces = []
    for f in _torus_faces("a") + _torus_faces("b"):
        if tuple(sorted(f)) in removed:
            continue
        faces.append([glue.get(v, v) for v in f])
    return validate(faces, name="genus2")


@lru_cache(maxsize=None)
def rp2() -> SimplicialComplex:
    """The 6-vertex projective plane (hemi-icosahedron); non-orientable."""
    faces = [
        [1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 5, 6],
        [2, 3, 6], [2, 3, 5], [2, 4, 5], [3, 4, 6], [4, 5, 6],
    ]
    return validate([[f"r{v}" for v in f] for f in faces], name="rp2")


COMPLEX_BUILDERS = {
    "point": point,
    "interval": interval,
    "disk": triangle2,
    "hexagon": hexagon,
    "triangle": triangle_circle,
    "dodecagon": dodecagon,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "torus": torus,
    "torus7": torus7,
    "genus2": genus2,
    "rp2": rp2,
}

COMPLEX_NOTES = {
    "point": "single vertex",
    "interval": "one 1-simplex; has boundary",
    "disk": "solid 2-simplex; has boundary",
    "hexagon": "circle, 6 edges",
    "triangle": "circle, 3 edges",
    "dodecagon": "circle, 12 edges",
    "octahedron": "sphere, 8 triangles",
    "icosahedron": "sphere, 20 triangles",
    "torus": "9-vertex grid torus, 18 triangles",
    "torus7": "7-vertex minimal torus, 14 triangles",
    "genus2": "connected sum of two grid tori, 34 triangles",
    "rp2": "6-vertex projective plane (non-orientable)",
}


def get_complex(name: str) -> SimplicialComplex:
    if name not in COMPLEX_BUILDERS:
        raise KeyError(f"unknown catalog complex {name!r}")
    return COMPLEX_BUILDERS[name]()


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hex_wrap2() -> SimplicialMap:
    """Degree-2 wrap of the hexagon onto the triangle: v_i -> w_{i mod 3}."""
    vm = {f"v{i}": f"w{i % 3}" for i in range(6)}
    return check_simplicial(vm, hexagon(), triangle_circle(), name="hex_wrap2")


@lru_cache(maxsize=None)
def hex_wrap1() -> SimplicialMap:
    """Degree-1 map hexagon -> triangle: walk around once, then collapse."""
    vm = {"v0": "w0", "v1": "w1", "v2": "w2", "v3": "w0", "v4": "w0", "v5": "w0"}
    return check_simplicial(vm, hexagon(), triangle_circle(), name="hex_wrap1")


@lru_cache(maxsize=None)
def dodeca_wrap2() -> SimplicialMap:
    """Degree-2 wrap of the 12-gon onto the hexagon."""
    vm = {f"x{i}": f"v{i % 6}" for i in range(12)}
    return check_simplicial(vm, dodecagon(), hexagon(), name="dodeca_wrap2")


@lru_cache(maxsize=None)
def hex_rotate() -> SimplicialMap:
    vm = {f"v{i}": f"v{(i + 1) % 6}" for i in range(6)}
    return check_simplicial(vm, hexagon(), hexagon(), name="hex_rotate")


@lru_cache(maxsize=None)
def hex_reflect() -> SimplicialMap:
    """Orientation-reversing involution of the hexagon, degree -1."""
    vm = {f"v{i}": f"v{(6 - i) % 6}" for i in range(6)}
    return check_simplicial(vm, hexagon(), hexagon(), name="hex_reflect")


@lru_cache(maxsize=None)
def tri_rotate() -> SimplicialMap:
    vm = {f"w{i}": f"w{(i + 1) % 3}" for i in range(3)}
    return check_simplicial(vm, triangle_circle(), triangle_circle(), name="tri_rotate")


@lru_cache(maxsize=None)
def oct_antipodal() -> SimplicialMap:
    """The antipodal involution of the octahedron, degree -1."""
    vm = {"u": "d", "d": "u", "n": "s", "s": "n", "e": "w", "w": "e"}
    return check_simplicial(vm, octahedron(), octahedron(), name="oct_antipodal")


@lru_cache(maxsize=None)
def oct_rotate() -> SimplicialMap:
    """Quarter turn about the polar axis, degree 1, two fixed vertices."""
    vm = {"u": "u", "d": "d", "n": "e", "e": "s", "s": "w", "w": "n"}
    return check_simplicial(vm, octahedron(), octahedron(), name="oct_rotate")


@lru_cache(maxsize=None)
def torus_transpose() -> SimplicialMap:
    """(i, j) -> (j, i) on the grid torus; swaps the H_1 generators."""
    vm = {f"t{i}{j}": f"t{j}{i}" for i in range(3) for j in range(3)}
    return check_simplicial(vm, torus(), torus(), name="torus_transpose")


@lru_cache(maxsize=None)
def torus_shift() -> SimplicialMap:
    """(i, j) -> (i+1, j); homotopic to the identity, fixed-point free."""
    vm = {f"t{i}{j}": f"t{(i + 1) % 3}{j}" for i in range(3) for j in range(3)}
    return check_simplicial(vm, torus(), torus(), name="torus_shift")


def _const(domain, codomain, vertex, name):
    return lambda: constant_map(domain(), codomain(), vertex, name=name)


MAP_BUILDERS = {
    "hex_wrap2": hex_wrap2,
    "hex_wrap1": hex_wrap1,
    "dodeca_wrap2": dodeca_wrap2,
    "hex_rotate": hex_rotate,
    "hex_reflect": hex_reflect,
    "tri_rotate": tri_rotate,
    "oct_antipodal": oct_antipodal,
    "oct_rotate": oct_rotate,
    "torus_transpose": torus_transpose,
    "torus_shift": torus_shift,
    "id_hexagon": lambda: identity_map(hexagon()),
    "id_triangle": lambda: identity_map(triangle_circle()),
    "id_octahedron": lambda: identity_map(octahedron()),
    "id_icosahedron": lambda: identity_map(icosahedron()),
    "id_torus": lambda: identity_map(torus()),
    "id_torus7": lambda: identity_map(torus7()),
    "id_genus2": lambda: identity_map(genus2()),
    "id_point": lambda: identity_map(point()),
    "oct_const_u": _const(octahedron, octahedron, "u", "oct_const_u"),
    "hex_const_v0": _const(hexagon, hexagon, "v0", "hex_const_v0"),
    "hex_const_v3": _const(hexagon, hexagon, "v3", "hex_const_v3"),
    "hex_to_tri_const_w0": _const(hexagon, triangle_circle, "w0", "hex_to_tri_const_w0"),
    "hex_to_tri_const_w1": _const(hexagon, triangle_circle, "w1", "hex_to_tri_const_w1"),
    "wrap2_after_reflect": lambda: compose(
        hex_wrap2(), hex_reflect(), name="wrap2_after_reflect"
    ),
    "wrap1_after_rotate": lambda: compose(
        hex_wrap1(), hex_rotate(), name="wrap1_after_rotate"
    ),
    "wrap2_after_dodeca": lambda: compose(
        hex_wrap2(), dodeca_wrap2(), name="wrap2_after_dodeca"
    ),
    "wrap1_after_dodeca": lambda: compose(
        hex_wrap1(), dodeca_wrap2(), name="wrap1_after_dodeca"
    ),
}

MAP_NOTES = {
    "hex_wrap2": "hexagon -> triangle, v_i -> w_(i mod 3), degree 2",
    "hex_wrap1": "hexagon -> triangle, walk once then collapse, degree 1",
    "dodeca_wrap2": "12-gon -> hexagon, degree 2",
    "hex_rotate": "hexagon rotation by one step, degree 1",
    "hex_reflect": "hexagon reflection, degree -1",
    "tri_rotate": "triangle rotation, degree 1",
    "oct_antipodal": "octahedron antipodal involution, degree -1",
    "oct_rotate": "octahedron quarter turn, degree 1",
    "torus_transpose": "grid transpose on the torus, degree -1",
    "torus_shift": "grid translation on the torus, degree 1",
}


@lru_cache(maxsize=None)
def get_map(name: str) -> SimplicialMap:
    """The catalog map ``name``, one object per name, so its chain map is
    built once."""
    if name not in MAP_BUILDERS:
        raise KeyError(f"unknown catalog map {name!r}")
    return MAP_BUILDERS[name]()


def catalog_listing():
    return {
        "complexes": {name: COMPLEX_NOTES.get(name, "") for name in COMPLEX_BUILDERS},
        "maps": {name: MAP_NOTES.get(name, "") for name in MAP_BUILDERS},
    }

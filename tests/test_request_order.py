"""Request order: each path continues from its previous request when asked
for the same degree or a higher one, so rows and operation counts must not
depend on the order in which degrees are requested."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faulhaber import OpCounter, direct_coefficients
from faulhaber import cli

# (degree, whether a freshly counted direct request comes first)
REQUESTS = st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(REQUESTS)
@example([(3, False), (3, True), (9, False), (9, False), (2, True), (40, False), (0, True)])
def test_rows_and_counts_do_not_depend_on_request_order(requests):
    for p, counted in requests:
        if counted:
            counter = OpCounter()
            counted_row = direct_coefficients(p, counter)
            assert counter == OpCounter(p * (p + 1) // 2 + p, p * (p + 1) // 2)
        rows = [path(p) for path in cli.METHODS.values()]
        assert rows[0].degree == p
        assert rows[0] == rows[1] == rows[2]
        if counted:
            assert counted_row == rows[0]

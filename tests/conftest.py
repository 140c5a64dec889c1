"""Run the acceptance module last.

It trains and evaluates models for many minutes, while every other module
takes seconds; run first, the fast modules report even when a run is cut
short.  The order within each module is kept.
"""


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")

"""Good fixture: the shared-kernel shape (charge before filter)."""


def _sweep(heap, predicates, counters, visible):
    for page in heap.read_pages(range(heap.num_pages)):  # allowed here
        for row in page.rows:
            counters.rows_examined += 1  # charged first
            if visible(row) and predicates.matches(row):
                yield row

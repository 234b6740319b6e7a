exception Undefined_relation = Rec_eval.Undefined_relation
exception Recursive_definition = Rec_eval.Recursive_definition

let eval = Rec_eval.two_valued

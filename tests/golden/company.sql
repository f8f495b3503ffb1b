CREATE TABLE Employee (
    EmpNo TEXT,
    Name TEXT,
    Address TEXT,
    Salary TEXT,
    PRIMARY KEY (EmpNo)
);

CREATE TABLE Project (
    ProNo TEXT,
    Name TEXT,
    Description TEXT,
    DepNo TEXT, -- (Controls, 1, 1, n)
    PRIMARY KEY (ProNo),
    FOREIGN KEY (DepNo) REFERENCES Department (DepNo)
);

CREATE TABLE Engineer (
    EmpNo TEXT,
    Grade TEXT,
    ProNo TEXT, -- (Consult, 1, 1, 1)
    Hours TEXT,
    PRIMARY KEY (EmpNo),
    FOREIGN KEY (EmpNo) REFERENCES Employee (EmpNo),
    FOREIGN KEY (ProNo) REFERENCES Project (ProNo)
);

CREATE TABLE Department (
    DepNo TEXT,
    Name TEXT,
    Field TEXT,
    "Manager-EmpNo" TEXT, -- (Manages, 1, 1, 1)
    StartDate TEXT,
    PRIMARY KEY (DepNo, Name),
    UNIQUE (DepNo),
    FOREIGN KEY ("Manager-EmpNo") REFERENCES Employee (EmpNo)
);

CREATE TABLE Location (
    DepNo TEXT,
    Location TEXT,
    PRIMARY KEY (DepNo, Location),
    FOREIGN KEY (DepNo) REFERENCES Department (DepNo)
);

CREATE TABLE Dependent (
    EmpNo TEXT,
    Name TEXT,
    Sex TEXT,
    Relation TEXT,
    PRIMARY KEY (EmpNo, Name),
    FOREIGN KEY (EmpNo) REFERENCES Employee (EmpNo)
);
